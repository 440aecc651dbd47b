//! Convergence-behaviour integration tests: the qualitative facts the
//! paper reads off Figures 2, 3 and 5, checked quantitatively.

use datagen::{PaperDataset, Task};
use saco::problem::{lasso_objective, SvmProblem};
use saco::prox::Lasso;
use saco::seq::{acc_bcd, bcd, sa_accbcd, sa_svm, svm};
use saco::{LassoConfig, SvmConfig, SvmLoss};
use sparsela::io::Dataset;

fn lambda10(ds: &Dataset) -> f64 {
    let atb = ds.a.spmv_t(&ds.b);
    0.1 * sparsela::vecops::inf_norm(&atb)
}

#[test]
fn larger_blocks_converge_faster_per_iteration() {
    // Fig. 2: "larger blocksizes converge faster than µ = 1 ... at the
    // expense of more computation".
    let g = PaperDataset::Epsilon.generate(0.1, 21);
    let lambda = lambda10(&g.dataset);
    let run = |mu: usize| {
        let c = LassoConfig {
            mu,
            s: 1,
            lambda,
            seed: 5,
            max_iters: 400,
            trace_every: 0,
            rel_tol: None,
            ..Default::default()
        };
        bcd(&g.dataset, &Lasso::new(lambda), &c).final_value()
    };
    let f1 = run(1);
    let f8 = run(8);
    assert!(
        f8 < f1,
        "µ=8 should reach a lower objective in equal iterations: {f8} vs {f1}"
    );
}

#[test]
fn accelerated_methods_win_at_high_iteration_counts() {
    // Fig. 2/3: "the accelerated methods converge faster". Acceleration
    // needs θ (which starts at µ/n) to ramp, so measure over many epochs
    // of a moderately sized problem.
    let g = PaperDataset::Epsilon.generate(0.1, 22);
    let lambda = lambda10(&g.dataset);
    let c = LassoConfig {
        mu: 8,
        s: 1,
        lambda,
        seed: 6,
        max_iters: 4000,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let plain = bcd(&g.dataset, &Lasso::new(lambda), &c);
    let acc = acc_bcd(&g.dataset, &Lasso::new(lambda), &c);
    assert!(
        acc.final_value() <= plain.final_value() * 1.02,
        "acc {} vs plain {}",
        acc.final_value(),
        plain.final_value()
    );
}

#[test]
fn output_iterate_matches_traced_objective() {
    let g = PaperDataset::Covtype.generate(0.02, 23);
    let lambda = lambda10(&g.dataset);
    let c = LassoConfig {
        mu: 4,
        s: 16,
        lambda,
        seed: 7,
        max_iters: 600,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let lasso = Lasso::new(lambda);
    let res = sa_accbcd(&g.dataset, &lasso, &c);
    let explicit = lasso_objective(&g.dataset, &lasso, &res.x);
    assert!(
        (explicit - res.final_value()).abs() < 1e-7 * explicit.max(1.0),
        "traced {} vs explicit {}",
        res.final_value(),
        explicit
    );
}

#[test]
fn lasso_kkt_conditions_hold_at_convergence() {
    let g = PaperDataset::Epsilon.generate(0.05, 24);
    let lambda = lambda10(&g.dataset);
    let c = LassoConfig {
        mu: 8,
        s: 8,
        lambda,
        seed: 8,
        max_iters: 20_000,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    // The monotone (non-accelerated) solver settles cleanly onto the KKT
    // manifold; accelerated iterates oscillate near |∇f| = λ boundaries.
    let res = saco::seq::sa_bcd(&g.dataset, &Lasso::new(lambda), &c);
    let mut r = g.dataset.a.spmv(&res.x);
    for (ri, bi) in r.iter_mut().zip(&g.dataset.b) {
        *ri -= bi;
    }
    let grad = g.dataset.a.spmv_t(&r);
    let mut violations = 0;
    for (gj, xj) in grad.iter().zip(&res.x) {
        let ok = if *xj == 0.0 {
            gj.abs() <= lambda * 1.1
        } else {
            (gj + xj.signum() * lambda).abs() <= lambda * 0.1 + 1e-6
        };
        if !ok {
            violations += 1;
        }
    }
    let frac = violations as f64 / res.x.len() as f64;
    assert!(
        frac < 0.02,
        "KKT violated at fraction {frac:.3} of coordinates"
    );
}

#[test]
fn svm_duality_gap_converges_and_l2_is_smoother() {
    let g = PaperDataset::W1a.generate_for_task(Task::Classification, 1.0, 25);
    let run = |loss: SvmLoss| {
        let c = SvmConfig {
            loss,
            lambda: 1.0,
            s: 1,
            seed: 9,
            max_iters: 30_000,
            trace_every: 1000,
            gap_tol: None,
        };
        svm(&g.dataset, &c)
    };
    let l1 = run(SvmLoss::L1);
    let l2 = run(SvmLoss::L2);
    assert!(l1.final_value() < 1e-2 * l1.trace.initial_value());
    assert!(l2.final_value() < 1e-2 * l2.trace.initial_value());
    // gaps never significantly negative
    for p in l1.trace.points().iter().chain(l2.trace.points()) {
        assert!(p.value > -1e-8 * l1.trace.initial_value());
    }
}

#[test]
fn svm_classifier_beats_chance_comfortably() {
    let g = PaperDataset::Gisette.generate_for_task(Task::Classification, 0.3, 26);
    let c = SvmConfig {
        loss: SvmLoss::L2,
        lambda: 1.0,
        s: 64,
        seed: 10,
        max_iters: 20_000,
        trace_every: 2000,
        gap_tol: Some(1e-2),
    };
    let res = sa_svm(&g.dataset, &c);
    let prob = SvmProblem::new(c.loss, c.lambda);
    let acc = prob.accuracy(&g.dataset.a, &g.dataset.b, &res.x);
    assert!(acc > 0.9, "training accuracy {acc}");
}

#[test]
fn planted_support_is_recovered_on_well_conditioned_data() {
    let a = datagen::uniform_sparse(3000, 300, 0.1, 27);
    let reg_data = datagen::planted_regression(a, 8, 0.05, 27);
    let ds = &reg_data.dataset;
    let lambda = 0.05 * sparsela::vecops::inf_norm(&ds.a.spmv_t(&ds.b));
    let c = LassoConfig {
        mu: 8,
        s: 16,
        lambda,
        seed: 11,
        max_iters: 8000,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let res = sa_accbcd(ds, &Lasso::new(lambda), &c);
    // every planted coordinate is found with the right sign
    for (j, &xs) in reg_data.x_star.iter().enumerate() {
        if xs != 0.0 {
            assert!(
                res.x[j] * xs > 0.0,
                "planted coordinate {j} missed: x={} x*={}",
                res.x[j],
                xs
            );
        }
    }
    // and not too many spurious ones
    let spurious = res
        .x
        .iter()
        .zip(&reg_data.x_star)
        .filter(|(x, xs)| x.abs() > 0.05 && **xs == 0.0)
        .count();
    assert!(spurious <= 20, "{spurious} spurious coordinates");
}

/// The λ = 0 optimum `x* = (AᵀA)⁻¹Aᵀb`, by a Cholesky solve of the normal
/// equations — accurate here because a tall Gaussian `A` is well
/// conditioned.
fn least_squares(a: &sparsela::DenseMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.cols();
    // Lower factor L of AᵀA = LLᵀ, column by column.
    let mut l = vec![vec![0.0; n]; n];
    for j in 0..n {
        for i in j..n {
            let g: f64 = (0..a.rows()).map(|r| a.get(r, i) * a.get(r, j)).sum();
            let s = g - (0..j).map(|k| l[i][k] * l[j][k]).sum::<f64>();
            l[i][j] = if i == j { s.sqrt() } else { s / l[j][j] };
        }
    }
    // Solve L y = Aᵀb, then Lᵀ x = y.
    let mut x = a.gemv_t(b);
    for i in 0..n {
        x[i] = (x[i] - (0..i).map(|k| l[i][k] * x[k]).sum::<f64>()) / l[i][i];
    }
    for i in (0..n).rev() {
        x[i] = (x[i] - (i + 1..n).map(|k| l[k][i] * x[k]).sum::<f64>()) / l[i][i];
    }
    x
}

#[test]
fn solvers_reach_the_least_squares_optimum_when_unregularized() {
    // With λ = 0 the prox is the identity and the solvers do randomized
    // block least squares; the exact optimum comes from the normal equations.
    let a = datagen::dense_gaussian(120, 24, 31);
    let reg_data = datagen::planted_regression(a, 24, 0.3, 31);
    let ds = &reg_data.dataset;
    let x_star = least_squares(&ds.a.to_dense(), &ds.b);
    let f_star = {
        let mut r = ds.a.spmv(&x_star);
        for (ri, bi) in r.iter_mut().zip(&ds.b) {
            *ri -= bi;
        }
        0.5 * sparsela::vecops::nrm2_sq(&r)
    };
    let c = LassoConfig {
        mu: 8,
        s: 16,
        lambda: 0.0,
        seed: 32,
        max_iters: 6000,
        trace_every: 0,
        ..Default::default()
    };
    let res = saco::seq::sa_bcd(ds, &Lasso::new(0.0), &c);
    let rel = (res.final_value() - f_star) / f_star.max(1e-12);
    assert!(
        rel < 1e-3,
        "BCD did not reach the least-squares optimum: {} vs {}",
        res.final_value(),
        f_star
    );
    // and the iterate itself is close
    let dist = sparsela::vecops::dist2(&res.x, &x_star) / sparsela::vecops::nrm2(&x_star);
    assert!(dist < 0.05, "iterate distance {dist}");
}
