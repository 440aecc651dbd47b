//! Wall-clock cost of the SVM solvers on the host: classical dual CD vs
//! SA-SVM at several s, plus the L1/L2 loss comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagen::{binary_classification, powerlaw_sparse};
use saco::seq::{sa_svm, svm};
use saco::{SvmConfig, SvmLoss};
use sparsela::io::Dataset;
use std::hint::black_box;

fn problem() -> Dataset {
    let a = powerlaw_sparse(8_000, 2_000, 0.01, 1.0, 11);
    binary_classification(a, 0.05, 11).dataset
}

fn cfg(loss: SvmLoss, s: usize, iters: usize) -> SvmConfig {
    SvmConfig {
        loss,
        lambda: 1.0,
        s,
        seed: 3,
        max_iters: iters,
        trace_every: 0,
        gap_tol: None,
    }
}

fn bench_sa_sweep(c: &mut Criterion) {
    let ds = problem();
    let iters = 2_048;
    let mut group = c.benchmark_group("svm_l1_2048iters");
    group.throughput(Throughput::Elements(iters as u64));
    group.bench_function("classical", |b| {
        b.iter(|| black_box(svm(&ds, &cfg(SvmLoss::L1, 1, iters))));
    });
    for s in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("sa", s), &s, |b, &s| {
            b.iter(|| black_box(sa_svm(&ds, &cfg(SvmLoss::L1, s, iters))));
        });
    }
    group.finish();
}

fn bench_losses(c: &mut Criterion) {
    let ds = problem();
    let mut group = c.benchmark_group("svm_loss_2048iters");
    for loss in [SvmLoss::L1, SvmLoss::L2] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{loss:?}")),
            &loss,
            |b, &loss| {
                b.iter(|| black_box(svm(&ds, &cfg(loss, 1, 2_048))));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sa_sweep, bench_losses);
criterion_main!(benches);
