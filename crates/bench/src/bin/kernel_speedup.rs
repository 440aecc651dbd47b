//! Single-node kernel parallelism + SIMD gauges → `BENCH_baseline.json`.
//!
//! Records, under `kernel.*`, the speedup of the `saco-par` kernel layer
//! on the sampled-Gram hot path, the measured gain of the
//! `sparsela::simd` microkernels (scalar-vs-auto per kernel, and the
//! rewrite vs. the pre-SIMD reference kernel kept in this bin), plus the
//! allocation saving of the workspace-reuse API.
//!
//! Three kinds of numbers land in the baseline:
//!
//! * **Modeled comp_time** (`kernel.*.modeled_*`): the deterministic
//!   makespan of the kernel's per-tile flop weights list-scheduled onto
//!   `t` workers ([`saco_par::schedule_bound`]), priced through the same
//!   Cray XC30 cost model the simulator uses. These are byte-stable run
//!   to run and independent of the host — the committed headline numbers.
//! * **Wall measurements** (`kernel.*.wall_*`, `kernel.host_cpus`): what
//!   this host actually did. On a single-CPU container the wall speedup
//!   is ~1×, which is exactly why the modeled numbers exist; see
//!   docs/PERFORMANCE.md.
//! * **SIMD gauges** (`kernel.simd.*`): the active lane width, `SACO_SIMD`
//!   mode, and per-kernel scalar→auto wall speedups — see
//!   docs/OBSERVABILITY.md for the taxonomy.
//!
//! What fails this bin is deterministic: the modeled sparse-Gram speedup
//! dropping below 1.5× and the sampled Gram disagreeing bitwise with the
//! pre-SIMD reference kernel, on sparse columns and on full slices alike.
//! Walls are printed and recorded, never asserted — a shared host moves
//! them by 30 % between runs; wall claims go through `benchmark/`'s
//! alternating-pair protocol.

use datagen::{dense_gaussian, uniform_sparse};
use mpisim::{CostModel, KernelClass};
use saco_bench::baseline::Baseline;
use saco_bench::fmt_secs;
use sparsela::gram::{gram_flops, sampled_gram, sampled_gram_into, sampled_gram_parallel};
use sparsela::{simd, vecops, DenseMatrix, GramWorkspace, MajorSlices};
use std::hint::black_box;
use std::time::Instant;
use xrng::{rng_from_seed, sample_without_replacement};

/// Best-of-`reps` wall seconds for `f`.
fn wall_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall seconds for `f` and `g`, alternated within every
/// rep so both sides sample the same noise environment. The vs-reference
/// gauges are ratios of these — two sequential [`wall_secs`] calls on a
/// shared host can see different interference windows and move a ratio
/// by 30% even when neither kernel changed.
fn wall_pair<F: FnMut(), G: FnMut()>(reps: usize, mut f: F, mut g: G) -> (f64, f64) {
    let (mut bf, mut bg) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        bf = bf.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        g();
        bg = bg.min(t0.elapsed().as_secs_f64());
    }
    (bf, bg)
}

/// Modeled comp_time of tile `weights` on `t` workers under `model`.
fn modeled(model: &CostModel, class: KernelClass, weights: &[u64], ws: u64, t: usize) -> f64 {
    model.compute_time(class, saco_par::schedule_bound(weights, t), ws)
}

/// The pre-SIMD sampled Gram kernel: one scattered slice at a time, one
/// gathered single-chain dot per pair.
fn sparse_gram_reference<M: MajorSlices>(m: &M, sel: &[usize]) -> DenseMatrix {
    let k = sel.len();
    let mut g = vec![0.0f64; k * k];
    let mut work = vec![0.0f64; m.minor_len()];
    for a in 0..k {
        let sa = m.slice(sel[a]);
        for (&i, &v) in sa.indices.iter().zip(sa.values) {
            work[i] = v;
        }
        g[a * k + a] = sa.norm_sq();
        for b in a + 1..k {
            let sb = m.slice(sel[b]);
            let mut acc = 0.0;
            for (&i, &x) in sb.indices.iter().zip(sb.values) {
                acc += x * work[i];
            }
            g[a * k + b] = acc;
            g[b * k + a] = acc;
        }
        for &i in sa.indices {
            work[i] = 0.0;
        }
    }
    DenseMatrix::from_vec(k, k, g)
}

/// One dense sampled-Gram point: the first `k` slices of `m`, every one
/// of them full, through the kernel and through the pre-SIMD reference.
/// Bitwise equality is asserted; the walls (seconds per call, alternated)
/// are printed with their flop rates and returned as reference ÷ kernel.
fn full_gram_point<M: MajorSlices>(m: &M, k: usize, reps: usize) -> f64 {
    let sel: Vec<usize> = (0..k).collect();
    let (mut ws, mut out) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
    sampled_gram_into(m, &sel, 1, &mut ws, &mut out);
    assert_eq!(
        out.as_slice(),
        sparse_gram_reference(m, &sel).as_slice(),
        "full-slice gram (k = {k}) must be bitwise the per-pair reference"
    );
    // Enough calls per timing that a microsecond kernel outlasts the clock.
    let flops = gram_flops(m, &sel) as f64;
    let calls = (2e7 / flops) as usize + 1;
    let (old, new) = wall_pair(
        reps,
        || {
            for _ in 0..calls {
                black_box(sparse_gram_reference(m, &sel));
            }
        },
        || {
            for _ in 0..calls {
                sampled_gram_into(m, &sel, 1, &mut ws, &mut out);
                black_box(out.as_slice());
            }
        },
    );
    let (old, new) = (old / calls as f64, new / calls as f64);
    println!(
        "full-slice gram k={k} × {}: ref {} ({:.1} Gflop/s) → {} ({:.1} Gflop/s), {:.2}×",
        m.minor_len(),
        fmt_secs(old),
        flops / old / 1e9,
        fmt_secs(new),
        flops / new / 1e9,
        old / new
    );
    old / new
}

fn main() {
    let quick = saco_bench::quick_mode();
    let model = CostModel::cray_xc30();
    let mut base = Baseline::load_repo();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    base.set("kernel.host_cpus", host_cpus as f64);
    let reps = if quick { 9 } else { 5 };

    // -- Sparse sampled Gram over lane-block tiles -----------------------
    let (rows, cols, width) = if quick {
        (4_000, 1_000, 64)
    } else {
        (20_000, 4_000, 256)
    };
    let csc = uniform_sparse(rows, cols, 0.01, 32).to_csc();
    let mut rng = rng_from_seed(33);
    let sel = sample_without_replacement(&mut rng, cols, width);
    // The tile the kernel runs is one SPARSE_LANES-wide lane block of the
    // triangle: block a0 scatters its (up to) 8 columns, then makes one
    // pass over every partner sel[b], b > a0 — ~2·nnz_b per pass, all
    // lanes at once.
    let nnz: Vec<u64> = sel.iter().map(|&j| csc.col_nnz(j) as u64).collect();
    let sparse_weights: Vec<u64> = (0..width)
        .step_by(simd::SPARSE_LANES)
        .map(|a0| {
            let block = &nnz[a0..width.min(a0 + simd::SPARSE_LANES)];
            block.iter().sum::<u64>() + nnz[a0 + 1..].iter().map(|&z| 2 * z).sum::<u64>()
        })
        .collect();
    let sparse_ws = (rows + width * width) as u64;
    let s1 = modeled(
        &model,
        KernelClass::SparseGemm,
        &sparse_weights,
        sparse_ws,
        1,
    );
    let s4 = modeled(
        &model,
        KernelClass::SparseGemm,
        &sparse_weights,
        sparse_ws,
        4,
    );
    let sparse_speedup = s1 / s4;
    base.set("kernel.sparse_gram.modeled_comp_time.t1", s1);
    base.set("kernel.sparse_gram.modeled_comp_time.t4", s4);
    base.set("kernel.sparse_gram.modeled_speedup.t4", sparse_speedup);
    let swall1 = wall_secs(reps, || {
        black_box(sampled_gram_parallel(&csc, &sel, 1));
    });
    let swall2 = wall_secs(reps, || {
        black_box(sampled_gram_parallel(&csc, &sel, 2));
    });
    let swall4 = wall_secs(reps, || {
        black_box(sampled_gram_parallel(&csc, &sel, 4));
    });
    base.set("kernel.sparse_gram.wall_t1", swall1);
    base.set("kernel.sparse_gram.wall_t2", swall2);
    base.set("kernel.sparse_gram.wall_t4", swall4);
    println!(
        "sparse gram k={width}: modeled t1 {} t4 {} (speedup {sparse_speedup:.2}×); wall t1 {} t2 {} t4 {}",
        fmt_secs(s1),
        fmt_secs(s4),
        fmt_secs(swall1),
        fmt_secs(swall2),
        fmt_secs(swall4)
    );

    // -- SIMD microkernels: vs the pre-SIMD kernels, and scalar vs auto --
    // The reference lives in this bin (sparse_gram_reference): same host,
    // same run, same shapes, interleaved reps — measured, not modeled.
    let (old_sparse, new_sparse) = wall_pair(
        reps,
        || {
            black_box(sparse_gram_reference(&csc, &sel));
        },
        || {
            black_box(sampled_gram(&csc, &sel));
        },
    );
    // The rewrite preserves every per-entry chain exactly.
    assert_eq!(
        sampled_gram(&csc, &sel).as_slice(),
        sparse_gram_reference(&csc, &sel).as_slice(),
        "sparse SIMD gram must be bitwise the per-pair reference"
    );
    let sparse_vs_ref = old_sparse / new_sparse;
    base.set("kernel.simd.sparse_gram.speedup_vs_ref", sparse_vs_ref);

    // Scalar-vs-auto sweep: identical kernels, SACO_SIMD pinned per side
    // (the BLAS-1 reductions have one build, so they are not swept).
    let ambient = simd::mode();
    let vlen = 100_000usize;
    let vx: Vec<f64> = (0..vlen).map(|i| (i as f64 * 1e-3).sin()).collect();
    let mut vz = vec![0.0f64; vlen];
    let mut sweep = |mode: simd::Mode| {
        simd::set_mode(mode);
        let s = wall_secs(reps, || {
            black_box(sampled_gram(&csc, &sel));
        });
        let ax = wall_secs(reps, || {
            for _ in 0..50 {
                vecops::axpy(1e-6, &vx, &mut vz);
            }
            black_box(vz[0]);
        });
        (s, ax)
    };
    let (s_sc, axpy_sc) = sweep(simd::Mode::Scalar);
    let (s_wd, axpy_wd) = sweep(simd::Mode::Auto);
    simd::set_mode(ambient);
    base.set("kernel.simd.sparse_gram.speedup", s_sc / s_wd);
    base.set("kernel.simd.axpy.speedup", axpy_sc / axpy_wd);
    base.set("kernel.simd.lanes", simd::effective_lanes() as f64);
    base.set(
        "kernel.simd.mode",
        match simd::mode() {
            simd::Mode::Scalar => 0.0,
            simd::Mode::Auto => 2.0,
        },
    );
    println!(
        "simd ({}, {} lanes): sparse gram ref {} → {} ({sparse_vs_ref:.2}×); \
         scalar→auto sparse {:.2}× axpy {:.2}×",
        simd::mode_label(),
        simd::effective_lanes(),
        fmt_secs(old_sparse),
        fmt_secs(new_sparse),
        s_sc / s_wd,
        axpy_sc / axpy_wd,
    );

    // -- Full slices: dense rows (svm_seq_dense's shape) and dense columns
    // (lasso_par_dense's) take the full-slice lane block. k = 1 is one
    // `norm_sq`, k = 2 one padded four-partner pass: small stays cheap.
    let dense_rows = dense_gaussian(16, 1_500, 34);
    for k in [1usize, 2, 4, 8] {
        full_gram_point(&dense_rows, k, reps);
    }
    let k16 = full_gram_point(&dense_rows, 16, reps);
    let k128 = full_gram_point(&dense_gaussian(12_500, 128, 35).to_csc(), 128, reps);
    base.set("kernel.simd.full_gram.vs_ref.k16", k16);
    base.set("kernel.simd.full_gram.vs_ref.k128", k128);

    // -- Workspace reuse vs fresh allocation (wall only) -----------------
    let iters = if quick { 20 } else { 100 };
    let fresh = wall_secs(3, || {
        for _ in 0..iters {
            black_box(sampled_gram(&csc, &sel));
        }
    });
    let mut gws = GramWorkspace::new();
    let mut out = DenseMatrix::zeros(0, 0);
    let reuse = wall_secs(3, || {
        for _ in 0..iters {
            sampled_gram_into(&csc, &sel, 1, &mut gws, &mut out);
            black_box(out.get(0, 0));
        }
    });
    base.set("kernel.workspace.fresh_secs", fresh);
    base.set("kernel.workspace.reuse_secs", reuse);
    println!(
        "workspace reuse ×{iters}: fresh {} vs reuse {}",
        fmt_secs(fresh),
        fmt_secs(reuse)
    );

    // Pool utilization of everything this process ran.
    let pool = saco_par::stats();
    base.set("kernel.par.regions", pool.regions as f64);
    base.set("kernel.par.tiles", pool.tiles as f64);

    // The acceptance bar for the parallel kernel layer: ≥1.5× modeled
    // comp_time at 4 workers on the sampled-Gram path every solve runs.
    assert!(
        sparse_speedup >= 1.5,
        "modeled sparse-Gram speedup at 4 threads is {sparse_speedup:.2}×, want ≥ 1.5×"
    );

    let path = base.write();
    println!("kernel gauges merged into {}", path.display());
}
