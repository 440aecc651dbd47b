//! Property-based tests of the solver layer: proximal-operator axioms,
//! SA ≡ classical equivalence on random problems, SVM step invariants.

use proptest::prelude::*;
use saco::config::BlockSampling;
use saco::prox::{ElasticNet, GroupLasso, Lasso, Regularizer};
use saco::seq::{acc_bcd, sa_accbcd, sa_svm, svm};
use saco::{LassoConfig, SvmConfig, SvmLoss};
use sparsela::io::Dataset;
use sparsela::{vecops, CooMatrix};

fn random_dataset(m: usize, n: usize, seed: u64, labels_pm1: bool) -> Dataset {
    let mut rng = xrng::rng_from_seed(seed);
    let mut coo = CooMatrix::new(m, n);
    for i in 0..m {
        for j in 0..n {
            if rng.next_bool(0.4) {
                coo.push(i, j, rng.next_gaussian());
            }
        }
    }
    let b: Vec<f64> = (0..m)
        .map(|_| {
            if labels_pm1 {
                if rng.next_bool(0.5) {
                    1.0
                } else {
                    -1.0
                }
            } else {
                rng.next_gaussian()
            }
        })
        .collect();
    Dataset { a: coo.to_csr(), b }
}

/// prox operators are firmly nonexpansive: ‖prox(u) − prox(v)‖ ≤ ‖u − v‖.
fn check_nonexpansive<R: Regularizer>(
    reg: &R,
    seed: u64,
    k: usize,
    eta: f64,
) -> Result<(), TestCaseError> {
    let mut rng = xrng::rng_from_seed(seed);
    let coords: Vec<usize> = (0..k).collect();
    let u: Vec<f64> = (0..k).map(|_| 4.0 * rng.next_gaussian()).collect();
    let v: Vec<f64> = (0..k).map(|_| 4.0 * rng.next_gaussian()).collect();
    let mut pu = u.clone();
    let mut pv = v.clone();
    reg.prox_block(&mut pu, &coords, eta);
    reg.prox_block(&mut pv, &coords, eta);
    let lhs = vecops::dist2(&pu, &pv);
    let rhs = vecops::dist2(&u, &v);
    prop_assert!(
        lhs <= rhs + 1e-12,
        "nonexpansiveness violated: {lhs} > {rhs}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lasso_prox_nonexpansive(seed in any::<u64>(), k in 1usize..12, lam in 0.0f64..5.0, eta in 0.01f64..3.0) {
        check_nonexpansive(&Lasso::new(lam), seed, k, eta)?;
    }

    #[test]
    fn elastic_net_prox_nonexpansive(seed in any::<u64>(), k in 1usize..12, mix in 0.0f64..=1.0, eta in 0.01f64..3.0) {
        check_nonexpansive(&ElasticNet::new(mix), seed, k, eta)?;
    }

    #[test]
    fn group_lasso_prox_nonexpansive(seed in any::<u64>(), groups in 1usize..4, lam in 0.0f64..5.0, eta in 0.01f64..3.0) {
        let k = groups * 3;
        check_nonexpansive(&GroupLasso::uniform(lam, k, 3), seed, k, eta)?;
    }

    /// prox output never increases the regularizer-plus-quadratic value vs
    /// keeping the input (a weak but universal optimality consequence).
    #[test]
    fn prox_does_not_worsen_objective(seed in any::<u64>(), k in 1usize..10, lam in 0.0f64..4.0, eta in 0.05f64..2.0) {
        let reg = Lasso::new(lam);
        let mut rng = xrng::rng_from_seed(seed);
        let coords: Vec<usize> = (0..k).collect();
        let v: Vec<f64> = (0..k).map(|_| 3.0 * rng.next_gaussian()).collect();
        let mut p = v.clone();
        reg.prox_block(&mut p, &coords, eta);
        let obj = |u: &[f64]| {
            0.5 * vecops::dist2(u, &v).powi(2) + eta * reg.value(u)
        };
        prop_assert!(obj(&p) <= obj(&v) + 1e-10);
    }

    /// SA-accBCD ≡ accBCD on random problems, any (µ, s), both sampling
    /// schemes — the paper's central equivalence, fuzzed.
    #[test]
    fn sa_equivalence_fuzzed(
        seed in any::<u64>(),
        mu_groups in 1usize..3,
        s in 1usize..20,
        aligned in any::<bool>(),
    ) {
        let n = 24;
        let ds = random_dataset(30, n, seed, false);
        let sampling = if aligned {
            BlockSampling::AlignedGroups { group_size: 2 }
        } else {
            BlockSampling::Coordinates
        };
        let cfg = LassoConfig {
            mu: mu_groups * 2,
            s,
            lambda: 0.3,
            seed: seed ^ 0xABCD,
            max_iters: 60,
            trace_every: 0,
            rel_tol: None,
            sampling,
        };
        let reg = Lasso::new(cfg.lambda);
        let classic = acc_bcd(&ds, &reg, &cfg);
        let sa = sa_accbcd(&ds, &reg, &cfg);
        let denom = classic.final_value().abs().max(1e-12);
        prop_assert!(
            (classic.final_value() - sa.final_value()).abs() / denom < 1e-8,
            "objectives diverge: {} vs {}", classic.final_value(), sa.final_value()
        );
        for (a, b) in classic.x.iter().zip(&sa.x) {
            prop_assert!((a - b).abs() < 1e-7, "iterates diverge: {a} vs {b}");
        }
    }

    /// SA-SVM ≡ SVM fuzzed over losses, s, λ.
    #[test]
    fn sa_svm_equivalence_fuzzed(
        seed in any::<u64>(),
        s in 1usize..24,
        l2 in any::<bool>(),
        lambda in 0.2f64..4.0,
    ) {
        let ds = random_dataset(16, 10, seed, true);
        let cfg = SvmConfig {
            loss: if l2 { SvmLoss::L2 } else { SvmLoss::L1 },
            lambda,
            s,
            seed: seed ^ 0x1234,
            max_iters: 80,
            trace_every: 0,
            gap_tol: None,
        };
        let classic = svm(&ds, &cfg);
        let sa = sa_svm(&ds, &cfg);
        for (a, b) in classic.x.iter().zip(&sa.x) {
            prop_assert!((a - b).abs() < 1e-8, "primal iterates diverge: {a} vs {b}");
        }
    }

    /// SVM duality gap is nonnegative along the whole run, for any data.
    #[test]
    fn svm_gap_nonnegative_fuzzed(seed in any::<u64>(), l2 in any::<bool>()) {
        let ds = random_dataset(20, 8, seed, true);
        let cfg = SvmConfig {
            loss: if l2 { SvmLoss::L2 } else { SvmLoss::L1 },
            lambda: 1.0,
            s: 4,
            seed,
            max_iters: 120,
            trace_every: 20,
            gap_tol: None,
        };
        let res = sa_svm(&ds, &cfg);
        let init = res.trace.initial_value();
        for p in res.trace.points() {
            prop_assert!(p.value >= -1e-10 * init.max(1.0), "negative gap {}", p.value);
        }
    }

    /// Lasso objective at the solver output never exceeds the zero
    /// solution's objective.
    #[test]
    fn solver_never_worse_than_zero(seed in any::<u64>(), mu in 1usize..5) {
        let ds = random_dataset(25, 15, seed, false);
        let cfg = LassoConfig {
            mu,
            s: 8,
            lambda: 0.2,
            seed,
            max_iters: 100,
            trace_every: 0,
            rel_tol: None,
            sampling: BlockSampling::Coordinates,
        };
        let reg = Lasso::new(cfg.lambda);
        let res = sa_accbcd(&ds, &reg, &cfg);
        let f0 = 0.5 * vecops::nrm2_sq(&ds.b);
        prop_assert!(res.final_value() <= f0 * (1.0 + 1e-9));
    }
}
