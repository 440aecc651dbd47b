//! Overhead of the simulation machinery itself: virtual-cluster charging
//! at paper-scale P. This bounds how much host time the experiment
//! harness spends per simulated operation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpisim::telemetry::Phase;
use mpisim::{CostModel, KernelClass, VirtualCluster};
use std::hint::black_box;

fn bench_virtual_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("virtual_cluster_step");
    for p in [768usize, 12_288] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let mut vc = VirtualCluster::new(p, CostModel::cray_xc30());
            b.iter(|| {
                vc.charge(KernelClass::Dot, Phase::Comp, |r| {
                    ((r % 7) as u64 * 100, 64)
                });
                vc.iallreduce(64);
                black_box(vc.time())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_virtual_cluster);
criterion_main!(benches);
