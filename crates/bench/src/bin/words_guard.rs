//! CI guard for the SA communication path: re-runs each fig4 point at its
//! committed `best_s` and fails if any `sa_best.words` (critical-path word
//! volume) exceeds the committed `BENCH_baseline.json` value. Simulated
//! word counts are fully deterministic, so any increase is a real
//! regression in the fused-allreduce packing or accounting — not noise —
//! and the guard demands exact `<=`.
//!
//! The iteration budget each dataset was recorded with lives in the
//! baseline itself (`fig4.<dataset>.iters`), so the comparison is valid
//! regardless of the current `SACO_QUICK` setting:
//!
//! ```sh
//! cargo run --release -p saco-bench --bin words_guard
//! ```

use datagen::PaperDataset;
use mpisim::CostReport;
use saco_bench::baseline::repo_baseline_path;
use saco_bench::{fig4_point, lambda_quantile};
use saco_telemetry::report::parse_summary;
use sparsela::io::Dataset;

fn run(ds: &Dataset, lambda: f64, s: usize, iters: usize, p: usize) -> CostReport {
    let out = fig4_point(ds, lambda, s, iters, p, None);
    out.report.expect("sim reports costs")
}

fn main() {
    let path = repo_baseline_path();
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read committed baseline {}: {e}", path.display()));
    let base = parse_summary(&doc).expect("parse committed baseline");

    // Same panels as fig4_scaling, but only the committed best-s point per
    // (dataset, P) is re-simulated — the guard checks the committed numbers
    // are reproducible, not re-derives them. Iteration budgets come from the
    // baseline, not from SACO_QUICK, so the guard always compares like with
    // like.
    let panels: [(PaperDataset, f64, Vec<usize>); 4] = [
        (PaperDataset::News20, 1.0, vec![192, 384, 768]),
        (PaperDataset::Covtype, 0.25, vec![768, 1536, 3072]),
        (PaperDataset::Url, 1.0, vec![3072, 6144, 12_288]),
        (PaperDataset::Epsilon, 0.5, vec![3072, 6144, 12_288]),
    ];

    let mut checked = 0usize;
    let mut failures = Vec::new();
    for (ds, scale, p_values) in panels {
        let name = ds.info().name;
        let g = ds.generate(scale, 808);
        let lambda = lambda_quantile(&g.dataset, 0.9);
        let iters = base
            .gauges
            .get(&format!("fig4.{name}.iters"))
            .unwrap_or_else(|| panic!("baseline missing fig4.{name}.iters — regenerate fig4"))
            .round() as usize;
        for &p in &p_values {
            let key = format!("fig4.{name}.p{p}");
            let best_s = base
                .gauges
                .get(&format!("{key}.best_s"))
                .unwrap_or_else(|| panic!("baseline missing {key}.best_s — regenerate fig4"))
                .round() as usize;
            let committed = base
                .gauges
                .get(&format!("{key}.sa_best.words"))
                .unwrap_or_else(|| panic!("baseline missing {key}.sa_best.words"));
            let rep = run(&g.dataset, lambda, best_s, iters, p);
            let measured = rep.critical.words as f64;
            let ok = measured <= *committed;
            println!(
                "{key}: s={best_s} words {measured} (committed {committed}) {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                failures.push(format!(
                    "{key}.sa_best.words: {measured} > committed {committed}"
                ));
            }
            checked += 1;
        }
    }

    if !failures.is_empty() {
        eprintln!("\nwords_guard: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("words_guard: {checked} fig4 points at or below the committed word volume");
}
