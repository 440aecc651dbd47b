//! `saco-bench` — experiment harness.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index); this library holds the shared plumbing: an output directory for
//! CSV series, markdown table printing, and the λ-selection policy for the
//! Lasso experiments.
//!
//! Binaries (run with `cargo run --release -p saco-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_costs` | Table I (analytic costs vs simulator counters) |
//! | `table2_datasets` | Tables II & IV (dataset inventory, paper vs repro) |
//! | `fig2_convergence` | Fig. 2 (objective vs iteration, 8 methods) |
//! | `table3_relerr` | Table III (SA vs non-SA final relative error) |
//! | `fig3_runtime` | Fig. 3 (objective vs simulated running time) |
//! | `fig4_scaling` | Fig. 4 (strong scaling + speedup breakdown) |
//! | `fig5_svm_gap` | Fig. 5 (duality gap vs iteration) |
//! | `table5_svm_speedup` | Table V (SA-SVM time-to-tolerance speedups) |
//! | `words_guard` | CI check: fig4 `sa_best.words` vs committed baseline |
//! | `run_all` | everything above, in order |

#![warn(missing_docs)]

pub mod baseline;
pub mod plot;

use mpisim::{ChaosSpec, CostModel};
use saco::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
use sparsela::io::Dataset;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Directory where experiment CSVs land: `target/experiments/`.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
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

/// One Fig. 4 point: (SA-)accCD (µ = 1, seed 4040, untraced) on `p`
/// nnz-balanced virtual XC30 ranks, optionally under a chaos plan. Shared
/// by `fig4_scaling`, `words_guard` and `chaos_sweep`, so the guard and
/// the sweep re-simulate exactly the points the figure commits.
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

/// A tiny CSV writer (plain text; no quoting needed for numeric series).
pub struct Csv {
    w: BufWriter<File>,
    path: PathBuf,
}

impl Csv {
    /// Create `target/experiments/<name>.csv` with the given header row.
    pub fn create(name: &str, header: &[&str]) -> Csv {
        let path = experiments_dir().join(format!("{name}.csv"));
        let mut w = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(w, "{}", header.join(",")).expect("write header");
        Csv { w, path }
    }

    /// Append one row of fields.
    pub fn row(&mut self, fields: &[String]) {
        writeln!(self.w, "{}", fields.join(",")).expect("write row");
    }

    /// Append one row of f64s.
    pub fn row_f64(&mut self, fields: &[f64]) {
        let strs: Vec<String> = fields.iter().map(|v| format!("{v:.9e}")).collect();
        self.row(&strs);
    }

    /// Flush and report the path.
    pub fn finish(mut self) -> PathBuf {
        self.w.flush().expect("flush csv");
        self.path
    }
}

/// Print a markdown table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("| {} |", r.join(" | "));
    }
    println!();
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
    use datagen::PaperDataset;

    #[test]
    fn lambda_is_positive_and_scales() {
        let g = PaperDataset::Leu.generate(0.2, 1);
        let l1 = lambda_for(&g.dataset, 0.1);
        let l2 = lambda_for(&g.dataset, 0.2);
        assert!(l1 > 0.0);
        assert!((l2 / l1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_writes_and_finishes() {
        let mut csv = Csv::create("selftest", &["a", "b"]);
        csv.row_f64(&[1.0, 2.0]);
        let path = csv.finish();
        let content = std::fs::read_to_string(path).expect("read back");
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("1.0"));
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
