//! `saco-bench` — experiment harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index); this library holds the shared plumbing: one [`table::Table`]
//! type that writes a result set's CSV series, prints its markdown table
//! and merges its gauges into the baseline, the Fig. 4 panels and s
//! sweep, and the λ-selection policy for the Lasso experiments.
//!
//! Binaries (run with `cargo run --release -p saco-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table2_datasets` | Tables II & IV (dataset inventory, paper vs repro) |
//! | `table1_costs` | Table I (analytic costs vs simulator counters) |
//! | `fig2_convergence` | Fig. 2 (objective vs iteration, 8 methods) |
//! | `table3_relerr` | Table III (SA vs non-SA final relative error) |
//! | `fig3_runtime` | Fig. 3 (objective vs simulated running time) |
//! | `fig4_scaling` | Fig. 4 (strong scaling + speedup breakdown) |
//! | `fig5_svm_gap` | Fig. 5 (duality gap vs iteration) |
//! | `table5_svm_speedup` | Table V (SA-SVM time-to-tolerance speedups) |
//! | `plot_figures` | SVGs of Figs. 2–5 from the CSV series |
//! | `run_all` | the nine rows above, in order |
//! | `chaos_sweep` | Fig. 4's best s under injected collective jitter |
//! | `net_fig4` | Fig. 4 measured on a real multi-process socket mesh |
//! | `kdcd_fig` | s-step K-DCD and its kernel-cache skips on the virtual cluster |
//! | `shard_fig` | an out-of-core solve from shards under a memory budget |
//! | `serve_bench` | `saco serve` tail latency under chaos stragglers |
//! | `ledger_check` | CI check: two `ledger/` trace files agree on every exact count |
//! | `ledger_pair` | alternating parent/change benchmark pairs → `ledger/PR-<n>-pairs.json` |

#![warn(missing_docs)]

pub mod baseline;
pub mod ledger;
pub mod pairs;
pub mod plot;
pub mod table;

use datagen::PaperDataset;
use mpisim::{ChaosSpec, CostModel, CostReport};
use saco::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
use sparsela::io::Dataset;
use std::path::{Path, PathBuf};

/// The workspace this crate was built in: where the committed files it
/// merges into (`BENCH_baseline.json`) live.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// Directory where experiment CSVs land: `experiments/` in cargo's target
/// directory, read when the bin runs — `$CARGO_TARGET_DIR` if set (a
/// relative one from the working directory, as cargo reads it), else the
/// workspace's `target/`.
pub fn experiments_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| workspace_root().join("target"), PathBuf::from);
    let dir = target.join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// `path` as the bins print it: relative to the workspace root when it
/// lies inside, so two checkouts print the same lines.
pub fn shown(path: &Path) -> String {
    path.strip_prefix(workspace_root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Quick mode: set `SACO_QUICK=1` to shrink every experiment (~10×) for
/// smoke-testing the harness.
pub fn quick_mode() -> bool {
    std::env::var("SACO_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scale an iteration budget down in quick mode.
pub fn budget(iters: usize) -> usize {
    if quick_mode() {
        (iters / 10).max(10)
    } else {
        iters
    }
}

/// Run `method` from memory on `p` virtual ranks of `model` — the
/// `RunSpec` cell the paper's timing figures and tables are drawn from.
pub fn simulate<R: saco::Regularizer>(
    method: Method<'_, R>,
    ds: &Dataset,
    p: usize,
    model: CostModel,
    balanced: bool,
) -> RunOutcome {
    let engine = Engine::sim(p, model, balanced);
    run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("simulated run")
}

/// The Fig. 4 panels, shared by `fig4_scaling` and `chaos_sweep`: a Lasso
/// stand-in, its generator scale, the rank counts of panels a–d (the
/// largest is also panels e–h's and the chaos sweep's), and the iteration
/// budget before [`budget`].
pub const FIG4_PANELS: [(PaperDataset, f64, [usize; 3], usize); 4] = [
    (PaperDataset::News20, 1.0, [192, 384, 768], 20_000),
    (PaperDataset::Covtype, 0.25, [768, 1536, 3072], 8_000),
    (PaperDataset::Url, 1.0, [3072, 6144, 12_288], 20_000),
    (PaperDataset::Epsilon, 0.5, [3072, 6144, 12_288], 8_000),
];

/// The s values every Fig. 4 sweep tries.
pub const FIG4_S_SWEEP: [usize; 9] = [2, 4, 8, 16, 32, 64, 128, 256, 512];

/// A Fig. 4 panel's data and its λ (the 0.9 quantile of `|Aᵀb|`).
pub fn fig4_problem(ds: PaperDataset, scale: f64) -> (Dataset, f64) {
    let ds = ds.generate(scale, 808).dataset;
    let lambda = lambda_quantile(&ds, 0.9);
    (ds, lambda)
}

/// The operating point of an s sweep: the smallest s whose running time
/// is within 2 % of the sweep minimum. The curve is flat near its optimum,
/// so a strict argmin would chase negligible gains into much larger s, and
/// s-fold larger messages and Gram memory.
pub fn best_s(sweep: &[(usize, CostReport)]) -> &(usize, CostReport) {
    let min_time = sweep
        .iter()
        .map(|(_, r)| r.running_time())
        .fold(f64::INFINITY, f64::min);
    sweep
        .iter()
        .find(|(_, r)| r.running_time() <= min_time * 1.02)
        .expect("nonempty s sweep")
}

/// One Fig. 4 point: (SA-)accCD (µ = 1, seed 4040, untraced) on `p`
/// nnz-balanced virtual XC30 ranks, optionally under a chaos plan. Shared
/// by `fig4_scaling` and `chaos_sweep`, so the sweep's jitter-free rows
/// are the figure's points.
pub fn fig4_point(
    ds: &Dataset,
    lambda: f64,
    s: usize,
    iters: usize,
    p: usize,
    chaos: Option<ChaosSpec>,
) -> RunOutcome {
    let cfg = saco::LassoConfig {
        mu: 1,
        s,
        lambda,
        seed: 4040,
        max_iters: iters,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let (reg, cfg, accel) = (&saco::Lasso::new(lambda), &cfg, true);
    let (model, balanced) = (CostModel::cray_xc30(), true);
    let engine = Engine::Sim {
        p,
        model,
        balanced,
        chaos,
    };
    let method = Method::Lasso { reg, cfg, accel };
    run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("simulated run")
}

/// Human-readable seconds.
pub fn fmt_secs(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.2} s")
    } else if t >= 1e-3 {
        format!("{:.2} ms", t * 1e3)
    } else {
        format!("{:.2} µs", t * 1e6)
    }
}

/// The Lasso λ policy.
///
/// The paper sets `λ = 100·σ_min(A)`; on the full LIBSVM datasets σ_min is
/// tiny, making the penalty weak. On our synthetic stand-ins we instead
/// anchor λ to the standard Lasso critical value `λ_max = ‖Aᵀb‖∞` (above
/// which the zero vector is optimal) and use `λ = frac·λ_max`. This keeps
/// the regularization *regime* (meaningful sparsity, non-trivial prox)
/// identical across datasets — what the convergence-shape comparison
/// actually needs. Recorded as a substitution in EXPERIMENTS.md.
pub fn lambda_for(ds: &Dataset, frac: f64) -> f64 {
    let atb = ds.a.spmv_t(&ds.b);
    let lmax = sparsela::vecops::inf_norm(&atb);
    frac * lmax
}

/// Quantile-anchored λ: the `q`-quantile of `|Aᵀb|` over the nonzero
/// correlations. On power-law data, `‖Aᵀb‖∞` is dominated by a handful of
/// very popular features and `λ = frac·λ_max` leaves almost no coordinate
/// active; anchoring at a quantile guarantees a controlled fraction of
/// initially-active coordinates regardless of sparsity structure, which is
/// what the convergence-shape experiments need.
pub fn lambda_quantile(ds: &Dataset, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let atb = ds.a.spmv_t(&ds.b);
    let mut mags: Vec<f64> = atb.iter().map(|v| v.abs()).filter(|v| *v > 0.0).collect();
    if mags.is_empty() {
        return 0.0;
    }
    mags.sort_by(|a, b| a.partial_cmp(b).expect("finite correlations"));
    let idx = ((mags.len() - 1) as f64 * q).round() as usize;
    mags[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_inside_the_workspace_print_relative_to_it() {
        let csv = workspace_root().join("target/experiments/fig3_leu.csv");
        assert_eq!(shown(&csv), "target/experiments/fig3_leu.csv");
        assert_eq!(
            shown(&workspace_root().join("BENCH_baseline.json")),
            "BENCH_baseline.json"
        );
        let outside = Path::new("/elsewhere/experiments/fig3_leu.csv");
        assert_eq!(shown(outside), "/elsewhere/experiments/fig3_leu.csv");
    }

    #[test]
    fn lambda_is_positive_and_scales() {
        let g = PaperDataset::Leu.generate(0.2, 1);
        let l1 = lambda_for(&g.dataset, 0.1);
        let l2 = lambda_for(&g.dataset, 0.2);
        assert!(l1 > 0.0);
        assert!((l2 / l1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn budget_respects_quick_mode() {
        // note: cannot mutate env safely in parallel tests; just check the
        // non-quick default path.
        if !quick_mode() {
            assert_eq!(budget(1000), 1000);
        }
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(2.5).ends_with(" s"));
        assert!(fmt_secs(2.5e-3).ends_with(" ms"));
        assert!(fmt_secs(2.5e-6).ends_with(" µs"));
    }
}
