//! Figure 4: strong scaling of accCD vs SA-accCD (panels a–d) and the
//! total / communication / computation speedup breakdown vs s (panels
//! e–h), on the paper's four Lasso datasets and rank ranges.
//!
//! Reproduced shapes: (a–d) SA-accCD is faster at every P and the gap
//! widens with P (latency grows as log P while per-rank flops shrink);
//! (e–h) communication speedup rises with s then falls once message size
//! dominates; computation speedup is a modest constant-factor win (BLAS-3
//! vs BLAS-1 Gram construction) that degrades once the s² Gram spills the
//! cache; total speedup peaks at a moderate s. Also prints the §VII
//! communication-reduction factors (paper: 4.2×–10.9×).

use datagen::PaperDataset;
use mpisim::CostReport;
use saco_bench::baseline::Baseline;
use saco_bench::{budget, fig4_point, fmt_secs, lambda_quantile, print_table, Csv};
use sparsela::io::Dataset;

fn run(ds: &Dataset, lambda: f64, s: usize, iters: usize, p: usize) -> CostReport {
    let out = fig4_point(ds, lambda, s, iters, p, None);
    out.report.expect("sim reports costs")
}

fn main() {
    let panels: [(PaperDataset, f64, Vec<usize>, usize); 4] = [
        (PaperDataset::News20, 1.0, vec![192, 384, 768], 20_000),
        (PaperDataset::Covtype, 0.25, vec![768, 1536, 3072], 8_000),
        (PaperDataset::Url, 1.0, vec![3072, 6144, 12_288], 20_000),
        (PaperDataset::Epsilon, 0.5, vec![3072, 6144, 12_288], 8_000),
    ];
    let s_sweep = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];

    let mut baseline = Baseline::load_repo();
    for (ds, scale, p_values, iters_raw) in panels {
        let name = ds.info().name;
        let g = ds.generate(scale, 808);
        let lambda = lambda_quantile(&g.dataset, 0.9);
        let iters = budget(iters_raw);
        eprintln!("fig4: {name} (H={iters}, λ={lambda:.3e})");

        // --- panels a–d: strong scaling, accCD vs best-s SA-accCD -------
        let mut scaling_rows = Vec::new();
        let mut csv_scaling = Csv::create(
            &format!("fig4_scaling_{name}"),
            &["p", "accCD_time", "sa_accCD_time", "best_s"],
        );
        baseline.set(&format!("fig4.{name}.iters"), iters as f64);
        for &p in &p_values {
            let classic = run(&g.dataset, lambda, 1, iters, p);
            // The running-time curve is flat near its optimum (neighbouring
            // s within ~1% of each other), so a strict argmin would chase
            // negligible gains into much larger s — and s-fold larger
            // message volume and Gram memory. Pick the smallest s whose
            // time is within 2% of the sweep minimum instead: same speed,
            // least communication-hungry operating point.
            let sweep: Vec<(usize, CostReport)> = s_sweep
                .iter()
                .map(|&s| (s, run(&g.dataset, lambda, s, iters, p)))
                .collect();
            let min_time = sweep
                .iter()
                .map(|(_, r)| r.running_time())
                .fold(f64::INFINITY, f64::min);
            let best: (usize, CostReport) = sweep
                .into_iter()
                .find(|(_, r)| r.running_time() <= min_time * 1.02)
                .expect("nonempty s sweep");
            let best_time = best.1.running_time();
            let key = format!("fig4.{name}.p{p}");
            baseline.record_report(&format!("{key}.classic"), &classic);
            baseline.record_report(&format!("{key}.sa_best"), &best.1);
            baseline.set(&format!("{key}.best_s"), best.0 as f64);
            csv_scaling.row_f64(&[p as f64, classic.running_time(), best_time, best.0 as f64]);
            scaling_rows.push(vec![
                p.to_string(),
                fmt_secs(classic.running_time()),
                fmt_secs(best_time),
                best.0.to_string(),
                format!("{:.2}×", classic.running_time() / best_time),
            ]);
        }
        let path = csv_scaling.finish();
        print_table(
            &format!("Fig. 4 (a–d) — {name}: strong scaling accCD vs SA-accCD (H = {iters})"),
            &["P", "accCD", "SA-accCD (best s)", "best s", "speedup"],
            &scaling_rows,
        );
        println!("series written to {}", path.display());

        // --- panels e–h: speedup breakdown vs s at the largest P --------
        let p_max = *p_values.last().expect("nonempty P list");
        let classic = run(&g.dataset, lambda, 1, iters, p_max);
        let c_comm = classic.critical.comm_time + classic.critical.idle_time;
        let c_comp = classic.critical.comp_time;
        let mut csv_break = Csv::create(
            &format!("fig4_speedup_{name}"),
            &[
                "s",
                "total_speedup",
                "comm_speedup",
                "comp_speedup",
                "words_ratio",
            ],
        );
        let mut rows = Vec::new();
        for &s in &s_sweep {
            let sa = run(&g.dataset, lambda, s, iters, p_max);
            let s_comm = sa.critical.comm_time + sa.critical.idle_time;
            let s_comp = sa.critical.comp_time;
            let total = classic.running_time() / sa.running_time();
            let comm = c_comm / s_comm;
            let comp = c_comp / s_comp;
            csv_break.row_f64(&[
                s as f64,
                total,
                comm,
                comp,
                sa.critical.words as f64 / classic.critical.words as f64,
            ]);
            rows.push(vec![
                s.to_string(),
                format!("{total:.2}×"),
                format!("{comm:.2}×"),
                format!("{comp:.2}×"),
                format!(
                    "{:.1}× fewer msgs",
                    classic.critical.messages as f64 / sa.critical.messages as f64
                ),
            ]);
        }
        let path = csv_break.finish();
        print_table(
            &format!("Fig. 4 (e–h) — {name} at P = {p_max}: speedup breakdown vs s"),
            &[
                "s",
                "total",
                "communication",
                "computation",
                "latency reduction",
            ],
            &rows,
        );
        println!("series written to {}", path.display());
    }
    let path = baseline.write();
    println!("baseline gauges merged into {}", path.display());
}
