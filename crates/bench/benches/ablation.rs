//! Ablations of the design choices DESIGN.md calls out, measured in
//! *simulated* seconds (Criterion measures the host cost of computing
//! them; the printed simulated numbers are emitted once per run):
//!
//! 1. symmetric-packed Gram vs full-matrix payload (paper footnote 3);
//! 2. nnz-balanced vs naive partitioning on skewed data (§VI stragglers);
//! 3. the s-sweep that places the speedup optimum;
//! 4. µ-sweep at fixed s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{binary_classification, planted_regression, powerlaw_sparse};
use mpisim::{CostModel, CostReport, VirtualCluster};
use saco::prox::Lasso;
use saco::run::Method;
use saco::{LassoConfig, SvmConfig, SvmLoss};
use saco_bench::simulate;
use sparsela::io::Dataset;
use std::hint::black_box;
use std::sync::Once;

fn lasso_problem() -> Dataset {
    let a = powerlaw_sparse(4_000, 1_200, 0.01, 1.0, 31);
    planted_regression(a, 12, 0.1, 31).dataset
}

fn lasso_cfg(mu: usize, s: usize) -> LassoConfig {
    LassoConfig {
        mu,
        s,
        lambda: 1.0,
        seed: 13,
        max_iters: 512,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    }
}

/// Balanced accBCD on `p` virtual ranks of `model`.
fn sim_accbcd(ds: &Dataset, cfg: &LassoConfig, p: usize, model: CostModel) -> CostReport {
    let method = Method::Lasso {
        reg: &Lasso::new(1.0),
        cfg,
        accel: true,
    };
    simulate(method, ds, p, model, true)
        .report
        .expect("sim reports costs")
}

static PRINT_ONCE: Once = Once::new();

/// Print the simulated-time ablation summary once per bench run.
fn print_simulated_summary() {
    PRINT_ONCE.call_once(|| {
        let ds = lasso_problem();
        let model = CostModel::cray_xc30();
        let p = 1024;

        println!("\n--- ablation: symmetric packing (simulated words per outer) ---");
        for s in [8u64, 64] {
            let packed = s * (s + 1) / 2 + 2 * s;
            let full = s * s + 2 * s;
            let mut vc_packed = VirtualCluster::new(p, model);
            vc_packed.iallreduce(packed);
            let mut vc_full = VirtualCluster::new(p, model);
            vc_full.iallreduce(full);
            println!(
                "  s={s}: packed {packed} words ({:.1} µs) vs full {full} words ({:.1} µs)",
                vc_packed.time() * 1e6,
                vc_full.time() * 1e6
            );
        }

        println!("--- ablation: partitioning on skewed data (simulated) ---");
        let a = powerlaw_sparse(6_000, 2_048, 0.02, 1.3, 37);
        let svm_ds = binary_classification(a, 0.05, 37).dataset;
        let svm_cfg = SvmConfig {
            loss: SvmLoss::L1,
            lambda: 1.0,
            s: 32,
            seed: 5,
            max_iters: 512,
            trace_every: 0,
            gap_tol: None,
        };
        let [naive, bal] = [false, true].map(|balanced| {
            simulate(Method::svm(&svm_cfg), &svm_ds, 256, model, balanced)
                .report
                .expect("sim reports costs")
        });
        println!(
            "  naive: comp+idle {:.2} ms | balanced: comp+idle {:.2} ms",
            (naive.critical.comp_time + naive.critical.idle_time) * 1e3,
            (bal.critical.comp_time + bal.critical.idle_time) * 1e3,
        );

        println!("--- ablation: s-sweep total simulated time (accCD, P=1024) ---");
        for s in [1usize, 4, 16, 64, 256] {
            let rep = sim_accbcd(&ds, &lasso_cfg(1, s), p, model);
            println!("  s={s:>3}: {:.2} ms", rep.running_time() * 1e3);
        }

        println!("--- ablation: µ-sweep total simulated time (s=16, P=1024) ---");
        for mu in [1usize, 2, 4, 8, 16] {
            let rep = sim_accbcd(&ds, &lasso_cfg(mu, 16), p, model);
            println!("  µ={mu:>2}: {:.2} ms", rep.running_time() * 1e3);
        }
        println!();
    });
}

fn bench_sim_host_cost(c: &mut Criterion) {
    print_simulated_summary();
    let ds = lasso_problem();
    let model = CostModel::cray_xc30();
    let mut group = c.benchmark_group("sim_host_cost_512iters");
    group.sample_size(10);
    for (label, s) in [("classic", 1usize), ("sa32", 32)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &s, |b, &s| {
            b.iter(|| black_box(sim_accbcd(&ds, &lasso_cfg(1, s), 1024, model)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_host_cost);
criterion_main!(benches);
