//! Algorithm 1: accelerated block coordinate descent (accBCD) for
//! proximal least-squares, after Fercoq & Richtárik's APPROX scheme.
//!
//! Nesterov acceleration enters through the coupled sequences `y, z` (and
//! their images `ỹ = Ay`, `z̃ = Az − b`) and the scalar `θ`; the iterate is
//! implicit: `x_h = θ_h² y_h + z_h`, "computed ... until termination".
//!
//! Algorithm 1 is the `s = 1` case of the SA recurrence (the paper's §III
//! observation, now structural): this entry point runs
//! `crate::exec::lasso_family` with the block size pinned to one.

use crate::config::LassoConfig;
use crate::exec::{lasso_family, SeqBackend};
use crate::prox::Regularizer;
use crate::trace::SolveResult;
use sparsela::io::Dataset;

/// Evaluate the implicit iterate's objective from the maintained vectors:
/// `Ax − b = θ²ỹ + z̃` and `x = θ²y + z`, the latter fed to the
/// regularizer entry by entry rather than formed, so a trace point
/// allocates nothing.
pub(crate) fn implicit_objective<R: Regularizer>(
    theta: f64,
    y: &[f64],
    z: &[f64],
    ytilde: &[f64],
    ztilde: &[f64],
    reg: &R,
) -> f64 {
    let t2 = theta * theta;
    let res_sq: f64 = ytilde
        .iter()
        .zip(ztilde)
        .map(|(yt, zt)| {
            let r = t2 * yt + zt;
            r * r
        })
        .sum();
    0.5 * res_sq + reg.value_iter(y.iter().zip(z).map(|(yi, zi)| t2 * yi + zi))
}

/// Solve `min_x ½‖Ax − b‖² + g(x)` with Algorithm 1 (accBCD; accCD for
/// µ = 1).
pub fn acc_bcd<R: Regularizer>(ds: &Dataset, reg: &R, cfg: &LassoConfig) -> SolveResult {
    let classic = LassoConfig {
        s: 1,
        ..cfg.clone()
    };
    let csc = ds.a.to_csc();
    lasso_family(&csc, &ds.b, reg, &classic, true, &mut SeqBackend::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::{ElasticNet, Lasso};
    use crate::seq::bcd;
    use datagen::{planted_regression, uniform_sparse};

    fn problem(seed: u64) -> datagen::RegressionData {
        let a = uniform_sparse(150, 80, 0.15, seed);
        planted_regression(a, 6, 0.05, seed)
    }

    #[test]
    fn converges_below_initial() {
        let reg = problem(1);
        let cfg = LassoConfig {
            mu: 4,
            lambda: 0.05,
            seed: 2,
            max_iters: 1500,
            trace_every: 50,
            ..Default::default()
        };
        let res = acc_bcd(&reg.dataset, &Lasso::new(cfg.lambda), &cfg);
        assert!(res.final_value() < 0.2 * res.trace.initial_value());
    }

    #[test]
    fn accelerated_beats_plain_bcd_at_equal_iterations() {
        // The paper's Fig. 2/3 observation: "the accelerated methods
        // converge faster than the non-accelerated methods".
        let reg = problem(3);
        let cfg = LassoConfig {
            mu: 4,
            lambda: 0.02,
            seed: 4,
            max_iters: 1200,
            trace_every: 0,
            ..Default::default()
        };
        let plain = bcd(&reg.dataset, &Lasso::new(cfg.lambda), &cfg);
        let acc = acc_bcd(&reg.dataset, &Lasso::new(cfg.lambda), &cfg);
        assert!(
            acc.final_value() <= plain.final_value() * 1.05,
            "acc {} vs plain {}",
            acc.final_value(),
            plain.final_value()
        );
    }

    #[test]
    fn acc_and_plain_reach_the_same_optimum() {
        let reg = problem(5);
        let lambda = 0.5;
        let long = LassoConfig {
            mu: 8,
            lambda,
            seed: 6,
            max_iters: 12_000,
            trace_every: 0,
            ..Default::default()
        };
        let a = acc_bcd(&reg.dataset, &Lasso::new(lambda), &long);
        let b = bcd(&reg.dataset, &Lasso::new(lambda), &long);
        let rel = (a.final_value() - b.final_value()).abs() / b.final_value();
        assert!(rel < 1e-3, "optima differ by {rel}");
    }

    #[test]
    fn implicit_iterate_matches_output_objective() {
        let reg = problem(7);
        let cfg = LassoConfig {
            mu: 2,
            lambda: 0.1,
            seed: 8,
            max_iters: 300,
            trace_every: 0,
            ..Default::default()
        };
        let lasso = Lasso::new(cfg.lambda);
        let res = acc_bcd(&reg.dataset, &lasso, &cfg);
        let f_explicit = crate::problem::lasso_objective(&reg.dataset, &lasso, &res.x);
        let f_traced = res.final_value();
        assert!(
            (f_explicit - f_traced).abs() < 1e-8 * f_explicit.max(1.0),
            "explicit {f_explicit} vs traced {f_traced}"
        );
    }

    #[test]
    fn works_with_elastic_net() {
        let reg = problem(9);
        let cfg = LassoConfig {
            mu: 4,
            lambda: 0.5,
            seed: 10,
            max_iters: 800,
            trace_every: 0,
            ..Default::default()
        };
        let res = acc_bcd(&reg.dataset, &ElasticNet::new(0.5), &cfg);
        assert!(res.final_value() < res.trace.initial_value());
    }

    #[test]
    fn cd_variant_runs() {
        let reg = problem(11);
        let cfg = LassoConfig {
            mu: 1,
            lambda: 0.05,
            seed: 12,
            max_iters: 3000,
            trace_every: 100,
            ..Default::default()
        };
        let res = acc_bcd(&reg.dataset, &Lasso::new(cfg.lambda), &cfg);
        assert!(res.final_value() < res.trace.initial_value());
    }
}
