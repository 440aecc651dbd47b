//! Warm-started regularization paths.
//!
//! Sparse-model selection in practice solves a *sequence* of problems down
//! a λ grid, warm-starting each from the previous solution. This module
//! wraps the SA solvers in that standard loop: λ is swept geometrically
//! from `λ_max = ‖Aᵀb‖∞` (above which `x = 0` is optimal) down to
//! `ratio·λ_max`, and each solve starts from the previous iterate, which
//! makes the whole path only a few times more expensive than a single cold
//! solve.
//!
//! Each segment is one [`crate::exec::lasso_family_warm`] run on the
//! `FamilySpec` driver — the same skeleton, workspace, and inner
//! recurrence as every other engine entry point (no hand-rolled solver
//! loop lives here; `scripts/shim_guard.sh` enforces that). The RNG, the
//! iterate/residual pair, and the kernel workspace are owned by the sweep
//! and threaded through every segment, so the whole path performs one
//! global sequence of sampling draws and allocates its Gram/cross/
//! selection buffers exactly once.
//!
//! Warm-starting an *accelerated* method is delicate (the momentum
//! sequence is tied to the iterate), so the path solver uses the
//! non-accelerated SA-BCD, which restarts cleanly from any point.

use crate::config::LassoConfig;
use crate::exec::{ExecBackend, SeqBackend};
use crate::problem::lasso_objective_from_residual;
use crate::prox::Regularizer;
use crate::workspace::KernelWorkspace;
use sparsela::io::Dataset;
use sparsela::{vecops, SliceSource};
use xrng::rng_from_seed;

/// One solved point on a regularization path.
#[derive(Clone, Debug)]
pub struct PathPoint {
    /// The regularization weight of this segment.
    pub lambda: f64,
    /// Objective value at the segment's solution (with *this* λ).
    pub objective: f64,
    /// Number of coordinates with `|xⱼ| > 1e-10`.
    pub nonzeros: usize,
    /// The solution itself.
    pub x: Vec<f64>,
}

/// A computed regularization path.
#[derive(Clone, Debug)]
pub struct RegularizationPath {
    /// Points from largest to smallest λ.
    pub points: Vec<PathPoint>,
}

impl RegularizationPath {
    /// λ values of the path, largest first.
    pub fn lambdas(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.lambda).collect()
    }

    /// The point whose support size is closest to `target` (model-size
    /// based selection).
    pub fn select_by_support(&self, target: usize) -> &PathPoint {
        self.points
            .iter()
            .min_by_key(|p| p.nonzeros.abs_diff(target))
            .expect("path has at least one point")
    }
}

/// The geometric λ grid of a path: `num_lambdas` values spanning
/// `[ratio·λ_max, λ_max]`, largest first, with `λ_max = ‖Aᵀb‖∞` computed
/// exactly as the sweep entry points always have (CSR transposed product,
/// row-major accumulation order).
pub(crate) fn lambda_grid(ds: &Dataset, num_lambdas: usize, ratio: f64) -> Vec<f64> {
    assert!(num_lambdas >= 1, "need at least one lambda");
    assert!(
        (0.0..1.0).contains(&ratio) || num_lambdas == 1,
        "ratio must be in (0,1)"
    );
    let atb = ds.a.spmv_t(&ds.b);
    let lambda_max = vecops::inf_norm(&atb).max(f64::MIN_POSITIVE);
    if num_lambdas == 1 {
        vec![lambda_max]
    } else {
        (0..num_lambdas)
            .map(|k| lambda_max * ratio.powf(k as f64 / (num_lambdas - 1) as f64))
            .collect()
    }
}

/// Sweep the λ grid on backend `B`: one warm-started driver segment per λ,
/// carrying the iterate, residual, RNG, and workspace across segments.
///
/// `cfg.max_iters` is the per-segment budget. The per-segment config pins
/// `trace_every = 0` and `rel_tol = None`: a path point is defined by its
/// iteration budget, so every engine (and every serve-layer resume) runs
/// the same number of inner iterations and stays bitwise reproducible.
pub(crate) fn drive_path<'r, B, R, F, M>(
    a: &M,
    b: &[f64],
    lambdas: &[f64],
    cfg: &LassoConfig,
    make_reg: F,
    backend: &mut B,
    ws: &mut KernelWorkspace,
) -> RegularizationPath
where
    B: ExecBackend<'r>,
    R: Regularizer,
    F: Fn(f64) -> R,
    M: SliceSource + Sync,
{
    let n = a.major_len();
    cfg.validate(n);
    let seg_cfg = LassoConfig {
        trace_every: 0,
        rel_tol: None,
        ..cfg.clone()
    };
    let mut rng = rng_from_seed(cfg.seed);
    let mut x = vec![0.0; n];
    let mut residual: Vec<f64> = b.iter().map(|v| -v).collect();
    let mut points = Vec::with_capacity(lambdas.len());
    for &lambda in lambdas {
        let reg = make_reg(lambda);
        crate::exec::lasso_family_warm(
            a,
            &reg,
            &seg_cfg,
            backend,
            &mut rng,
            ws,
            &mut x,
            &mut residual,
        );
        points.push(PathPoint {
            lambda,
            objective: lasso_objective_from_residual(&residual, &reg, &x),
            nonzeros: vecops::nnz_count(&x, 1e-10),
            x: x.clone(),
        });
    }
    RegularizationPath { points }
}

/// Compute a Lasso-style path with `num_lambdas` geometrically spaced
/// values in `[ratio·λ_max, λ_max]`, each segment solved by warm-started
/// SA-BCD with the settings in `cfg` (whose `lambda` field is ignored;
/// `max_iters` is the per-segment budget). The regularizer is rebuilt per
/// segment by `make_reg(λ)` so any prox family can ride the path.
///
/// ```
/// use datagen::{planted_regression, uniform_sparse};
/// use saco::path::lasso_path;
/// use saco::prox::Lasso;
/// use saco::LassoConfig;
/// let ds = planted_regression(uniform_sparse(100, 30, 0.2, 1), 3, 0.05, 1).dataset;
/// let cfg = LassoConfig { mu: 2, s: 4, max_iters: 200, trace_every: 0, ..Default::default() };
/// let path = lasso_path(&ds, &cfg, 4, 0.1, Lasso::new);
/// assert_eq!(path.points.len(), 4);
/// assert_eq!(path.points[0].nonzeros, 0); // x = 0 at λ_max
/// ```
pub fn lasso_path<R: Regularizer, F: Fn(f64) -> R>(
    ds: &Dataset,
    cfg: &LassoConfig,
    num_lambdas: usize,
    ratio: f64,
    make_reg: F,
) -> RegularizationPath {
    let lambdas = lambda_grid(ds, num_lambdas, ratio);
    let csc = ds.a.to_csc();
    let mut ws = KernelWorkspace::new();
    drive_path(
        &csc,
        &ds.b,
        &lambdas,
        cfg,
        make_reg,
        &mut SeqBackend::new(),
        &mut ws,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::Lasso;
    use datagen::{planted_regression, uniform_sparse};

    fn problem(seed: u64) -> Dataset {
        let a = uniform_sparse(300, 80, 0.2, seed);
        planted_regression(a, 6, 0.05, seed).dataset
    }

    fn cfg() -> LassoConfig {
        LassoConfig {
            mu: 4,
            s: 8,
            max_iters: 1200,
            trace_every: 0,
            ..Default::default()
        }
    }

    #[test]
    fn support_grows_monotonically_down_the_path() {
        let ds = problem(1);
        let path = lasso_path(&ds, &cfg(), 8, 0.01, Lasso::new);
        assert_eq!(path.points.len(), 8);
        // λ decreases
        for w in path.points.windows(2) {
            assert!(w[1].lambda < w[0].lambda);
        }
        // at λ_max the solution is (essentially) zero
        assert_eq!(path.points[0].nonzeros, 0, "x must be 0 at λ_max");
        // support grows overall (allow small local wiggles)
        let first = path.points.first().expect("nonempty").nonzeros;
        let last = path.points.last().expect("nonempty").nonzeros;
        assert!(last > first, "support did not grow: {first} -> {last}");
    }

    #[test]
    fn warm_start_matches_cold_solution_quality() {
        // The warm-started segment must reach (almost) the same objective
        // as a cold solve with the same budget at the same λ.
        let ds = problem(2);
        let c = cfg();
        let path = lasso_path(&ds, &c, 6, 0.05, Lasso::new);
        let final_lambda = path.points.last().expect("nonempty").lambda;
        let cold_cfg = LassoConfig {
            lambda: final_lambda,
            max_iters: 6 * c.max_iters, // same total budget as the path
            ..c
        };
        let cold = crate::seq::sa_bcd(&ds, &Lasso::new(final_lambda), &cold_cfg);
        let warm_obj = path.points.last().expect("nonempty").objective;
        let rel = (warm_obj - cold.final_value()).abs() / cold.final_value();
        assert!(
            rel < 0.02,
            "warm {} vs cold {}",
            warm_obj,
            cold.final_value()
        );
    }

    #[test]
    fn select_by_support_picks_closest() {
        let ds = problem(3);
        let path = lasso_path(&ds, &cfg(), 10, 0.01, Lasso::new);
        let sel = path.select_by_support(6);
        for p in &path.points {
            assert!(p.nonzeros.abs_diff(6) >= sel.nonzeros.abs_diff(6));
        }
    }

    #[test]
    fn single_lambda_path_is_lambda_max() {
        let ds = problem(4);
        let path = lasso_path(&ds, &cfg(), 1, 0.5, Lasso::new);
        assert_eq!(path.points.len(), 1);
        assert_eq!(path.points[0].nonzeros, 0);
    }

    #[test]
    fn workspace_buffers_are_reused_across_segments() {
        // PR 2's zero-alloc contract, extended to the path: one workspace
        // serves every segment, so after the first block its buffers reach
        // steady-state capacity and never reallocate again.
        let ds = problem(6);
        let c = LassoConfig {
            mu: 4,
            s: 8,
            max_iters: 64,
            trace_every: 0,
            ..Default::default()
        };
        let lambdas = lambda_grid(&ds, 5, 0.05);
        let csc = ds.a.to_csc();
        let mut ws = KernelWorkspace::new();
        let mut backend = SeqBackend::new();
        // First segment grows every buffer to steady state…
        drive_path(
            &csc,
            &ds.b,
            &lambdas[..1],
            &c,
            Lasso::new,
            &mut backend,
            &mut ws,
        );
        let caps = (ws.sel.capacity(), ws.deltas.capacity(), ws.cand.capacity());
        // …and the remaining segments must not grow any of them.
        drive_path(
            &csc,
            &ds.b,
            &lambdas[1..],
            &c,
            Lasso::new,
            &mut backend,
            &mut ws,
        );
        assert_eq!(ws.sel.capacity(), caps.0, "sel reallocated");
        assert_eq!(ws.deltas.capacity(), caps.1, "deltas reallocated");
        assert_eq!(ws.cand.capacity(), caps.2, "cand reallocated");
    }
}
