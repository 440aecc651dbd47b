//! Criterion microbenchmarks of the linear-algebra kernels, including the
//! measurement that justifies the cost model's kernel classes: one batched
//! width-`k` sampled Gram (BLAS-3-like) vs `k²/2` independent sparse dot
//! products (BLAS-1) over the same data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagen::{dense_gaussian, powerlaw_sparse, uniform_sparse, PaperDataset};
use sparsela::gram::{gram_flops, sampled_cross, sampled_gram, sampled_gram_into};
use sparsela::{simd, vecops, DenseMatrix, GramWorkspace};
use std::hint::black_box;
use xrng::{rng_from_seed, sample_without_replacement};

fn bench_sampled_gram(c: &mut Criterion) {
    let a = uniform_sparse(20_000, 4_000, 0.01, 1).to_csc();
    let mut rng = rng_from_seed(2);
    let mut group = c.benchmark_group("sampled_gram");
    for width in [1usize, 8, 32, 128] {
        let sel = sample_without_replacement(&mut rng, 4_000, width);
        let nnz: usize = sel.iter().map(|&j| a.col_nnz(j)).sum();
        group.throughput(Throughput::Elements((nnz * width) as u64));
        group.bench_with_input(BenchmarkId::new("batched", width), &sel, |b, sel| {
            b.iter(|| black_box(sampled_gram(&a, sel)));
        });
        // The BLAS-1 alternative: the same pairwise products as k²
        // independent merge-based sparse dots.
        group.bench_with_input(BenchmarkId::new("pairwise_dots", width), &sel, |b, sel| {
            b.iter(|| {
                let mut acc = 0.0;
                for (i, &ci) in sel.iter().enumerate() {
                    for &cj in &sel[i..] {
                        acc += a.col(ci).dot_sparse(&a.col(cj));
                    }
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_sampled_gram_full(c: &mut Criterion) {
    // Dense rows: every selected slice stores every coordinate, so the
    // call takes the full-slice lane block (interleave by copy, four
    // partner chains per pass). k = 16 is `svm_seq_dense`'s block.
    let a = dense_gaussian(16, 1_500, 3);
    let (mut ws, mut out) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
    let mut group = c.benchmark_group("sampled_gram_full");
    for k in [1usize, 2, 4, 8, 16] {
        let sel: Vec<usize> = (0..k).collect();
        group.throughput(Throughput::Elements(gram_flops(&a, &sel)));
        group.bench_with_input(BenchmarkId::from_parameter(k), &sel, |b, sel| {
            b.iter(|| {
                sampled_gram_into(&a, sel, 1, &mut ws, &mut out);
                black_box(out.get(0, 0))
            });
        });
    }
    group.finish();
}

fn bench_sampled_gram_news20(c: &mut Criterion) {
    // The two calls the benchmark's sparse solves make, on their data
    // (news20 ×4, seed 808): `lasso_seq_sparse`'s k = 128 columns (16
    // draws of µ = 8) and `lasso_net_sa`'s per-rank k = 32 columns (32
    // draws of µ = 1 on rank 0's half of the rows). Both take row
    // intersection; 64 selections are cycled so no one draw's lists stay
    // cached. gram.rs's ignored `gram_phases_on_the_solver_shapes` splits
    // the same calls into their phases.
    let news20 = PaperDataset::News20.generate_matrix(4.0, 808);
    let half = news20.row_block(0, news20.rows() / 2).to_csc();
    let cols = news20.to_csc();
    let mut group = c.benchmark_group("sampled_gram_news20");
    for (name, m, mu, s) in [
        ("lasso_seq_sparse_k128", &cols, 8, 16),
        ("lasso_net_sa_rank0_k32", &half, 1, 32),
    ] {
        let mut rng = rng_from_seed(808);
        let sels: Vec<Vec<usize>> = (0..64)
            .map(|_| {
                let mut sel = Vec::with_capacity(mu * s);
                for _ in 0..s {
                    xrng::sample_without_replacement_into(&mut rng, m.cols(), mu, &mut sel);
                }
                sel
            })
            .collect();
        let (mut ws, mut out) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
        let mut next = sels.iter().cycle();
        group.bench_function(name, |b| {
            b.iter(|| {
                let sel = next.next().expect("cycled");
                sampled_gram_into(m, sel, 1, &mut ws, &mut out);
                black_box(out.get(0, 0))
            });
        });
    }
    group.finish();
}

fn bench_parallel_gram(c: &mut Criterion) {
    // Shared-memory within-rank parallelism: same bitwise result. Whether
    // threads help is a memory-bandwidth question — the scatter-dot kernel
    // streams the selected columns' nonzeros, so on a bandwidth-saturated
    // host extra threads buy little (measure, don't assume).
    let a = uniform_sparse(40_000, 6_000, 0.01, 11).to_csc();
    let mut rng = rng_from_seed(12);
    let sel = sample_without_replacement(&mut rng, 6_000, 256);
    let mut group = c.benchmark_group("sampled_gram_256");
    group.sample_size(10);
    let (mut ws, mut out) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                sampled_gram_into(&a, &sel, t, &mut ws, &mut out);
                black_box(out.get(0, 0))
            });
        });
    }
    group.finish();
}

fn bench_workspace_reuse(c: &mut Criterion) {
    // The zero-alloc hot path: `sampled_gram_into` reusing one scatter
    // workspace and one output matrix vs a fresh allocation per call —
    // the per-iteration saving the solvers' KernelWorkspace banks on.
    let a = uniform_sparse(20_000, 4_000, 0.01, 21).to_csc();
    let mut rng = rng_from_seed(22);
    let sel = sample_without_replacement(&mut rng, 4_000, 64);
    let mut group = c.benchmark_group("gram_workspace_64");
    group.bench_function("fresh_alloc", |b| {
        b.iter(|| black_box(sampled_gram(&a, &sel)));
    });
    group.bench_function("reuse", |b| {
        let mut ws = GramWorkspace::new();
        let mut out = DenseMatrix::zeros(0, 0);
        b.iter(|| {
            sampled_gram_into(&a, &sel, 1, &mut ws, &mut out);
            black_box(out.get(0, 0))
        });
    });
    group.finish();
}

fn bench_group_prox(c: &mut Criterion) {
    // GroupLasso::prox_block accumulates per-group norms in a reusable
    // thread-local scratch (linear scan over the handful of groups a
    // sampled block touches). The reference closure below replicates the
    // old per-call HashMap implementation — same arithmetic, same
    // `coords`-order accumulation — so the group measures pure
    // allocation/hashing overhead on the innermost-loop path.
    use saco::prox::{GroupLasso, Regularizer};
    use std::collections::HashMap;

    let n = 4_096;
    let gl = GroupLasso::uniform(0.05, n, 8);
    let mut rng = rng_from_seed(31);
    let coords = sample_without_replacement(&mut rng, n, 64);
    let vals: Vec<f64> = coords.iter().map(|&c| (c as f64).sin()).collect();
    let groups: Vec<usize> = (0..n).map(|i| i / 8).collect();

    let mut group = c.benchmark_group("group_prox_64");
    group.throughput(Throughput::Elements(64));
    group.bench_function("hashmap_fresh", |b| {
        let mut v = vals.clone();
        b.iter(|| {
            v.copy_from_slice(&vals);
            let mut norms: HashMap<usize, f64> = HashMap::new();
            for (&c, &x) in coords.iter().zip(v.iter()) {
                *norms.entry(groups[c]).or_insert(0.0) += x * x;
            }
            let thr = 4.0 * 0.05;
            for (k, &c) in coords.iter().enumerate() {
                let norm = norms[&groups[c]].sqrt();
                if norm > thr {
                    v[k] *= 1.0 - thr / norm;
                } else {
                    v[k] = 0.0;
                }
            }
            black_box(v[0])
        });
    });
    group.bench_function("scratch_reuse", |b| {
        let mut v = vals.clone();
        b.iter(|| {
            v.copy_from_slice(&vals);
            gl.prox_block(&mut v, &coords, 4.0);
            black_box(v[0])
        });
    });
    group.finish();
}

fn bench_sampled_cross(c: &mut Criterion) {
    let a = powerlaw_sparse(20_000, 4_000, 0.01, 0.9, 3).to_csc();
    let v1: Vec<f64> = (0..20_000).map(|i| (i as f64).sin()).collect();
    let v2: Vec<f64> = (0..20_000).map(|i| (i as f64).cos()).collect();
    let mut rng = rng_from_seed(4);
    let sel = sample_without_replacement(&mut rng, 4_000, 64);
    c.bench_function("sampled_cross/64x2", |b| {
        b.iter(|| black_box(sampled_cross(&a, &sel, &[&v1, &v2])));
    });
}

fn bench_spmv(c: &mut Criterion) {
    let csr = powerlaw_sparse(50_000, 10_000, 0.002, 1.0, 5);
    let csc = csr.to_csc();
    let x: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
    let mut group = c.benchmark_group("spmv");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    group.bench_function("csr", |b| b.iter(|| black_box(csr.spmv(&x))));
    group.bench_function("csc", |b| b.iter(|| black_box(csc.spmv(&x))));
    group.finish();
}

fn bench_eig(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_eigenvalue");
    // Timed as the solver runs it: copy the block out, λmax in place on
    // the copy.
    let mut scratch = DenseMatrix::zeros(0, 0);
    for n in [2usize, 8, 32] {
        let all: Vec<usize> = (0..n).collect();
        let m = sampled_gram(&dense_gaussian(n + 4, n, 7).to_csc(), &all);
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| {
                m.diag_block_into(0, n, &mut scratch);
                black_box(sparsela::eig::max_eigenvalue(&mut scratch))
            });
        });
    }
    // The blocks `lasso_seq_sparse` sends (µ = 8 columns of news20): most
    // selections share no row, so the Gram is exactly diagonal and the
    // first convergence scan ends the call; the rest rotate.
    let a = PaperDataset::News20.generate_matrix(1.0, 808).to_csc();
    let mut rng = rng_from_seed(8);
    let (mut diagonal, mut rotating) = (None, None);
    while diagonal.is_none() || rotating.is_none() {
        let g = sampled_gram(&a, &sample_without_replacement(&mut rng, a.cols(), 8));
        let off = (0..8).any(|i| (0..8).any(|j| i != j && g.get(i, j) != 0.0));
        let slot = if off { &mut rotating } else { &mut diagonal };
        slot.get_or_insert(g);
    }
    for (name, g) in [
        ("news20_diagonal_8", diagonal),
        ("news20_rotating_8", rotating),
    ] {
        let g = g.expect("found above");
        group.bench_function(name, |b| {
            b.iter(|| {
                g.diag_block_into(0, 8, &mut scratch);
                black_box(sparsela::eig::max_eigenvalue(&mut scratch))
            });
        });
    }
    group.finish();
}

fn bench_vecops(c: &mut Criterion) {
    let x: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..100_000).map(|i| (i as f64).cos()).collect();
    let mut group = c.benchmark_group("vecops_100k");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("dot", |b| b.iter(|| black_box(vecops::dot(&x, &y))));
    group.bench_function("nrm2", |b| b.iter(|| black_box(vecops::nrm2(&x))));
    group.bench_function("axpy", |b| {
        let mut z = y.clone();
        b.iter(|| {
            vecops::axpy(0.5, &x, &mut z);
            black_box(z[0])
        })
    });
    group.finish();
}

fn bench_simd_modes(c: &mut Criterion) {
    // The SACO_SIMD=scalar|auto sweep over every kernel with more than
    // one build — the same arithmetic either way (bitwise identical, see
    // the sparsela proptests); what differs is only the ISA of the build
    // dispatched. The BLAS-1 reductions (dot, nrm2) have the portable
    // build only and are timed once, in `bench_vecops`.
    let modes = [(simd::Mode::Scalar, "scalar"), (simd::Mode::Auto, "auto")];
    let ambient = simd::mode();

    // Uniform 10 % columns take the scatter schedule, which has the wide
    // builds; row intersection has one. `gram.rs`'s
    // `the_data_picks_the_schedule` pins this shape and draw to scatter.
    let csc = uniform_sparse(4_000, 1_000, 0.1, 37).to_csc();
    let mut rng = rng_from_seed(44);
    let sel = sample_without_replacement(&mut rng, 1_000, 64);
    let mut group = c.benchmark_group("simd_sampled_gram_64");
    for (mode, label) in modes {
        group.bench_function(label, |b| {
            simd::set_mode(mode);
            b.iter(|| black_box(sampled_gram(&csc, &sel)));
        });
    }
    group.finish();

    let x: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..100_000).map(|i| (i as f64).cos()).collect();
    let mut group = c.benchmark_group("simd_vecops_100k");
    group.throughput(Throughput::Elements(100_000));
    for (mode, label) in modes {
        group.bench_function(&format!("axpy/{label}"), |b| {
            simd::set_mode(mode);
            let mut z = y.clone();
            b.iter(|| {
                vecops::axpy(0.5, &x, &mut z);
                black_box(z[0])
            })
        });
    }
    group.finish();
    simd::set_mode(ambient);
}

criterion_group!(
    benches,
    bench_sampled_gram,
    bench_sampled_gram_full,
    bench_sampled_gram_news20,
    bench_parallel_gram,
    bench_workspace_reuse,
    bench_group_prox,
    bench_sampled_cross,
    bench_spmv,
    bench_eig,
    bench_vecops,
    bench_simd_modes
);
criterion_main!(benches);
