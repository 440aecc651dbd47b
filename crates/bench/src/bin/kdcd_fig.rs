//! Kernel-family figure: synchronization avoided by s-step K-DCD plus
//! the kernel-cache skip savings, on the virtual cluster.
//!
//! Two shapes bracket the kernel regime: a dense microarray-like problem
//! (duke-shaped — few points, many features, every dot product dense)
//! and a power-law sparse text-like problem (rcv1-shaped — the dots ride
//! the nnz). For each, classical K-DCD (`s = 1`) and s-step K-DCD sweep
//! `s`, at paper-scale rank counts, publishing per-series gauges
//!
//! ```text
//! kdcd_fig.<shape>.p<P>.s<S>.{running_time,comm_time,comp_time,idle_time,
//!                             messages,words,flops}
//! kdcd_fig.<shape>.p<P>.s<S>.{speedup,cache_hit_pct,skipped_rounds}
//! ```
//!
//! into `BENCH_baseline.json`. The expected shape of the figure: message
//! count drops ~s× (one fused allreduce per outer loop instead of one per
//! iteration), and blocks whose sampled rows all hit the replicated
//! kernel cache skip their collective entirely — `skipped_rounds` is the
//! extra saving the kernel family has over the linear ones.
//!
//! Quick mode (`SACO_QUICK=1`, the CI `kdcd-smoke` job) shrinks the
//! shapes, and also proves seq ≡ sim bitwise on both tasks as a smoke
//! gate (the full cross-engine matrix lives in `tests/engine_matrix.rs`).

use datagen::{binary_classification, dense_gaussian, powerlaw_sparse};
use mpisim::CostModel;
use saco::run::Method;
use saco::seq::kdcd;
use saco::{KdcdConfig, KdcdTask, SvmLoss};
use saco_bench::baseline::Baseline;
use saco_bench::{fmt_secs, quick_mode, shown, simulate};
use sparsela::io::Dataset;
use sparsela::KernelFn;

#[derive(Clone, Copy)]
struct Shape {
    key: &'static str,
    points: usize,
    features: usize,
    /// Density 1.0 = dense gaussian; otherwise power-law sparse.
    density: f64,
    kernel: KernelFn,
    p: usize,
    iters: usize,
    seed: u64,
}

const SHAPES: [Shape; 2] = [
    Shape {
        key: "duke_like",
        points: 512,
        features: 1024,
        density: 1.0,
        kernel: KernelFn::Rbf { gamma: 0.05 },
        p: 768,
        iters: 4096,
        seed: 31,
    },
    Shape {
        key: "rcv1_like",
        points: 768,
        features: 4096,
        density: 0.02,
        kernel: KernelFn::Polynomial {
            gamma: 0.5,
            coef0: 1.0,
            degree: 2,
        },
        p: 1536,
        iters: 4096,
        seed: 32,
    },
];

fn shrink(sh: &Shape) -> Shape {
    Shape {
        points: sh.points / 8,
        features: sh.features / 8,
        p: 16,
        iters: 512,
        ..*sh
    }
}

fn dataset(sh: &Shape) -> Dataset {
    let a = if sh.density >= 1.0 {
        dense_gaussian(sh.points, sh.features, sh.seed)
    } else {
        powerlaw_sparse(sh.points, sh.features, sh.density, 0.8, sh.seed)
    };
    binary_classification(a, 0.05, sh.seed).dataset
}

fn cfg(sh: &Shape, s: usize) -> KdcdConfig {
    KdcdConfig {
        task: KdcdTask::Svm(SvmLoss::L1),
        kernel: sh.kernel,
        lambda: 1.0,
        s,
        seed: 97,
        max_iters: sh.iters,
        trace_every: 0,
        cache_budget_bytes: 32 << 20,
    }
}

fn run_shape(base: &mut Baseline, sh: &Shape, s_sweep: &[usize]) {
    let ds = dataset(sh);
    println!(
        "kdcd_fig.{}: {} points × {} features, {:?}, P = {}",
        sh.key,
        ds.num_points(),
        ds.num_features(),
        sh.kernel,
        sh.p
    );
    let mut classic_time = None;
    for &s in s_sweep {
        let c = cfg(sh, s);
        let out = simulate(Method::kdcd(&c), &ds, sh.p, CostModel::cray_xc30(), false);
        let (res, stats) = (out.result(), out.kdcd[0]);
        let rep = out.report.expect("sim reports costs");
        assert!(res.final_value() < 0.0, "dual objective must move");
        let key = format!("kdcd_fig.{}.p{}.s{s}", sh.key, sh.p);
        base.record_report(&key, &rep);
        let t = rep.running_time();
        let classic = *classic_time.get_or_insert(t);
        let speedup = classic / t;
        let lookups = stats.cache.hits + stats.cache.misses;
        let hit_pct = if lookups > 0 {
            100.0 * stats.cache.hits as f64 / lookups as f64
        } else {
            0.0
        };
        base.set(&format!("{key}.speedup"), speedup);
        base.set(&format!("{key}.cache_hit_pct"), hit_pct);
        base.set(
            &format!("{key}.skipped_rounds"),
            stats.exchange_skipped as f64,
        );
        println!(
            "  s = {s:>3}: {} ({speedup:.2}× vs classic) | {} msgs | {} words | \
             cache {hit_pct:.1}% hit | {} rounds skipped",
            fmt_secs(t),
            rep.critical.messages,
            rep.critical.words,
            stats.exchange_skipped
        );
    }
}

/// Quick-mode smoke gate: both dual tasks, seq ≡ sim bitwise.
fn smoke_bitwise(sh: &Shape) {
    let ds = dataset(sh);
    for task in [KdcdTask::Svm(SvmLoss::L1), KdcdTask::Ridge] {
        let mut c = cfg(sh, 8);
        c.task = task;
        let (seq_res, seq_stats) = kdcd(&ds, &c);
        let sim = simulate(Method::kdcd(&c), &ds, sh.p, CostModel::cray_xc30(), false);
        assert_eq!(seq_res.x, sim.result().x, "{task:?}: seq vs sim iterates");
        assert_eq!(
            seq_stats.cache, sim.kdcd[0].cache,
            "{task:?}: cache streams"
        );
    }
    println!("  smoke: seq ≡ sim bitwise on both tasks — ok");
}

fn main() {
    let quick = quick_mode();
    let s_sweep: &[usize] = if quick { &[1, 8] } else { &[1, 4, 16, 64] };
    let mut base = Baseline::load_repo();
    for sh in &SHAPES {
        let sh = if quick { shrink(sh) } else { Shape { ..*sh } };
        run_shape(&mut base, &sh, s_sweep);
        if quick {
            smoke_bitwise(&sh);
        }
    }
    let path = base.write();
    println!("baseline updated: {}", shown(&path));
}
