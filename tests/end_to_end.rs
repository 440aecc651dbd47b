//! End-to-end pipeline tests: registry → LIBSVM round-trip → partition →
//! solve → evaluate, the way a downstream user would drive the library.

use datagen::{imbalance_factor, PaperDataset, Task};
use mpisim::CostModel;
use saco::prox::Lasso;
use saco::run::{run, Engine, Method, RunSpec, Source};
use saco::seq::sa_accbcd;
use saco::{LassoConfig, SvmConfig, SvmLoss};
use sparsela::io::{read_libsvm, write_libsvm};
use std::io::Cursor;

#[test]
fn every_registry_dataset_solves_at_small_scale() {
    for ds in PaperDataset::ALL {
        let g = ds.generate(0.03, 101);
        match g.info.task {
            Task::Regression => {
                let atb = g.dataset.a.spmv_t(&g.dataset.b);
                let lambda = 0.2 * sparsela::vecops::inf_norm(&atb).max(1e-12);
                let c = LassoConfig {
                    mu: 2.min(g.dataset.num_features()),
                    s: 8,
                    lambda,
                    seed: 1,
                    max_iters: 200,
                    trace_every: 50,
                    rel_tol: None,
                    ..Default::default()
                };
                let res = sa_accbcd(&g.dataset, &Lasso::new(lambda), &c);
                assert!(
                    res.final_value() <= res.trace.initial_value() * (1.0 + 1e-12),
                    "{}: objective went up",
                    g.info.name
                );
            }
            Task::Classification => {
                let c = SvmConfig {
                    loss: SvmLoss::L2,
                    lambda: 1.0,
                    s: 16,
                    seed: 1,
                    max_iters: 400,
                    trace_every: 100,
                    gap_tol: None,
                };
                let res = saco::seq::sa_svm(&g.dataset, &c);
                assert!(
                    res.final_value() < res.trace.initial_value(),
                    "{}: duality gap did not shrink",
                    g.info.name
                );
            }
        }
    }
}

#[test]
fn libsvm_roundtrip_preserves_solver_results() {
    // Write a generated dataset in LIBSVM format, read it back, solve both
    // and compare — the external-format path a real user would take.
    let g = PaperDataset::News20.generate(0.02, 102);
    let mut buf = Vec::new();
    write_libsvm(&mut buf, &g.dataset).expect("serialize");
    let reread = read_libsvm(Cursor::new(&buf), g.dataset.num_features()).expect("parse");
    assert_eq!(reread.a, g.dataset.a);
    assert_eq!(reread.b, g.dataset.b);
    let c = LassoConfig {
        mu: 4,
        s: 8,
        lambda: 0.1,
        seed: 2,
        max_iters: 120,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let a = sa_accbcd(&g.dataset, &Lasso::new(0.1), &c);
    let b = sa_accbcd(&reread, &Lasso::new(0.1), &c);
    assert_eq!(a.x, b.x);
}

#[test]
fn balanced_partitioning_reduces_imbalance_on_skewed_data() {
    // The §VI straggler observation, end to end on a registry dataset.
    let g = PaperDataset::News20Binary.generate(0.05, 103);
    let n = g.dataset.num_features();
    let csc = g.dataset.a.to_csc();
    let weights: Vec<u64> = (0..n).map(|j| csc.col_nnz(j) as u64).collect();
    let p = 32;
    let naive = datagen::block_partition(n, p);
    let balanced = datagen::balanced_partition(&weights, p);
    let f_naive = imbalance_factor(&weights, &naive);
    let f_bal = imbalance_factor(&weights, &balanced);
    assert!(
        f_naive > 2.0,
        "power-law columns should make the naive split imbalanced, got {f_naive}"
    );
    assert!(f_bal < f_naive / 2.0, "balanced {f_bal} vs naive {f_naive}");
}

#[test]
fn distributed_svm_runs_on_a_registry_dataset() {
    let g = PaperDataset::Rcv1Binary.generate(0.03, 104);
    let c = SvmConfig {
        loss: SvmLoss::L1,
        lambda: 1.0,
        s: 16,
        seed: 3,
        max_iters: 160,
        trace_every: 40,
        gap_tol: None,
    };
    let engine = Engine::sim(4, CostModel::cray_xc30(), true);
    let spec = RunSpec::new(Method::svm(&c), engine, Source::InMemory(&g.dataset));
    let out = run(&spec).expect("sim run");
    let gap0 = out.result().trace.initial_value();
    let gap_end = out.result().final_value();
    assert!(
        gap_end < gap0,
        "duality gap did not shrink: {gap0} -> {gap_end}"
    );
    // cost counters populated
    let critical = out.report.expect("sim reports costs").critical;
    assert!(critical.messages > 0);
    assert!(critical.flops > 0);
}

#[test]
fn quick_paper_pipeline_smoke() {
    // Miniature of the full experiment pipeline: generate a stand-in,
    // run classical + SA on the virtual cluster at paper-scale P, check
    // the SA run is faster and numerically identical.
    let g = PaperDataset::Covtype.generate(0.01, 105);
    let lambda = 0.1 * sparsela::vecops::inf_norm(&g.dataset.a.spmv_t(&g.dataset.b));
    let mk = |s: usize| LassoConfig {
        mu: 2,
        s,
        lambda,
        seed: 4,
        max_iters: 96,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let model = CostModel::cray_xc30();
    let [(classic, rep_classic), (sa, rep_sa)] = [1, 16].map(|s| {
        let method = Method::Lasso {
            reg: &Lasso::new(lambda),
            cfg: &mk(s),
            accel: true,
        };
        let mut out = saco_bench::simulate(method, &g.dataset, 3072, model, true);
        (out.results.swap_remove(0), out.report.expect("sim report"))
    });
    let rel = (classic.final_value() - sa.final_value()).abs() / classic.final_value();
    assert!(rel < 1e-10, "SA changed the objective: rel {rel}");
    assert!(
        rep_sa.running_time() < rep_classic.running_time(),
        "SA not faster: {} vs {}",
        rep_sa.running_time(),
        rep_classic.running_time()
    );
}
