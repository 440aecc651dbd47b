//! Overhead of the simulation machinery itself: thread-machine collectives
//! (real channel traffic) and virtual-cluster charging at paper-scale P.
//! These bound how much host time the experiment harness spends per
//! simulated operation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpisim::telemetry::Phase;
use mpisim::{CostModel, KernelClass, ThreadMachine, VirtualCluster};
use std::hint::black_box;

fn bench_thread_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("thread_machine_allreduce");
    group.sample_size(10);
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let results = ThreadMachine::run(p, CostModel::cray_xc30(), |comm| {
                    let mut buf = vec![1.0; 256];
                    for _ in 0..50 {
                        comm.iallreduce_sum(&mut buf);
                    }
                    buf[0]
                });
                black_box(results)
            });
        });
    }
    group.finish();
}

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

criterion_group!(benches, bench_thread_allreduce, bench_virtual_cluster);
criterion_main!(benches);
