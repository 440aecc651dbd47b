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

use mpisim::CostReport;
use saco_bench::baseline::Baseline;
use saco_bench::table::{csv, head, Fmt::*, Table};
use saco_bench::{best_s, budget, fig4_point, fig4_problem, row, shown, FIG4_PANELS, FIG4_S_SWEEP};
use sparsela::io::Dataset;

fn run(ds: &Dataset, lambda: f64, s: usize, iters: usize, p: usize) -> CostReport {
    let out = fig4_point(ds, lambda, s, iters, p, None);
    out.report.expect("sim reports costs")
}

fn main() {
    let mut baseline = Baseline::load_repo();
    for (dataset, scale, ps, iters) in FIG4_PANELS {
        let name = dataset.info().name;
        let (ds, lambda) = fig4_problem(dataset, scale);
        let iters = budget(iters);
        eprintln!("fig4: {name} (H={iters}, λ={lambda:.3e})");

        // --- panels a–d: strong scaling, accCD vs best-s SA-accCD -------
        let title =
            format!("Fig. 4 (a–d) — {name}: strong scaling accCD vs SA-accCD (H = {iters})");
        let cols = [
            csv("p", Sci(9)).head("P", Plain),
            csv("accCD_time", Sci(9)).head("accCD", Secs),
            csv("sa_accCD_time", Sci(9)).head("SA-accCD (best s)", Secs),
            csv("best_s", Sci(9)).head("best s", Plain).key("best_s"),
            head("speedup", Times(2)),
        ];
        let mut scaling = Table::new(title, cols).csv(format!("fig4_scaling_{name}"));
        baseline.set(&format!("fig4.{name}.iters"), iters as f64);
        for p in ps {
            let classic = run(&ds, lambda, 1, iters, p);
            let sweep: Vec<(usize, CostReport)> = FIG4_S_SWEEP
                .iter()
                .map(|&s| (s, run(&ds, lambda, s, iters, p)))
                .collect();
            let (s, best) = best_s(&sweep);
            let (t_classic, t_best) = (classic.running_time(), best.running_time());
            let key = format!("fig4.{name}.p{p}");
            baseline.record_report(&format!("{key}.classic"), &classic);
            baseline.record_report(&format!("{key}.sa_best"), best);
            let speedup = t_classic / t_best;
            scaling.keyed_row(key, row![p, t_classic, t_best, *s, speedup]);
        }
        scaling.finish(Some(&mut baseline));

        // --- panels e–h: speedup breakdown vs s at the largest P --------
        let p_max = ps[2];
        let classic = run(&ds, lambda, 1, iters, p_max);
        let c_comm = classic.critical.comm_time + classic.critical.idle_time;
        let c_comp = classic.critical.comp_time;
        let title = format!("Fig. 4 (e–h) — {name} at P = {p_max}: speedup breakdown vs s");
        let cols = [
            csv("s", Sci(9)).head("s", Plain),
            csv("total_speedup", Sci(9)).head("total", Times(2)),
            csv("comm_speedup", Sci(9)).head("communication", Times(2)),
            csv("comp_speedup", Sci(9)).head("computation", Times(2)),
            csv("words_ratio", Sci(9)),
            head("latency reduction", Plain),
        ];
        let mut breakdown = Table::new(title, cols).csv(format!("fig4_speedup_{name}"));
        for s in FIG4_S_SWEEP {
            let sa = run(&ds, lambda, s, iters, p_max);
            let s_comm = sa.critical.comm_time + sa.critical.idle_time;
            let total = classic.running_time() / sa.running_time();
            let words = sa.critical.words as f64 / classic.critical.words as f64;
            let msgs = classic.critical.messages as f64 / sa.critical.messages as f64;
            let comp = c_comp / sa.critical.comp_time;
            let fewer = format!("{msgs:.1}× fewer msgs");
            breakdown.row(row![s, total, c_comm / s_comm, comp, words, fewer]);
        }
        breakdown.finish(None);
    }
    let path = baseline.write();
    println!("baseline gauges merged into {}", shown(&path));
}
