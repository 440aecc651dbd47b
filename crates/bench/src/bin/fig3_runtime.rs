//! Figure 3: objective vs *running time* for CD/accCD (top row) and
//! BCD/accBCD (bottom row) against their SA variants, on the virtual
//! cluster at the paper's rank counts (news20 P=768, covtype P=3072,
//! url P=12288, epsilon P=12288).
//!
//! For each SA method the paper plots two values of s — one near the best
//! speedup (blue) and a larger one where speedup degrades (red); the same
//! pairs are used here. The reproduced shape: SA variants reach any given
//! objective earlier in (simulated) time because they are identical per
//! iteration but cheaper per iteration in latency.

use datagen::PaperDataset;
use mpisim::CostModel;
use saco::prox::Lasso;
use saco::run::Method;
use saco::{LassoConfig, SolveResult};
use saco_bench::baseline::{key_label, Baseline};
use saco_bench::table::{csv, head, Fmt::*, Table};
use saco_bench::{budget, lambda_quantile, row, shown, simulate};
use sparsela::io::Dataset;

struct Panel {
    ds: PaperDataset,
    scale: f64,
    p: usize,
    /// (label prefix, accelerated?, µ, s values: s=1 plus the paper's two)
    families: Vec<(&'static str, bool, usize, Vec<usize>)>,
    iters_cd: usize,
    iters_bcd: usize,
    /// λ anchored at this quantile of |Aᵀb| (see `lambda_quantile`).
    lambda_q: f64,
}

fn run(
    ds: &Dataset,
    lambda: f64,
    accel: bool,
    mu: usize,
    s: usize,
    iters: usize,
    p: usize,
) -> SolveResult {
    let cfg = LassoConfig {
        mu,
        s,
        lambda,
        seed: 3030,
        max_iters: iters,
        trace_every: (iters / 40).max(1),
        rel_tol: None,
        ..Default::default()
    };
    let reg = &Lasso::new(lambda);
    let cfg = &cfg;
    let method = Method::Lasso { reg, cfg, accel };
    simulate(method, ds, p, CostModel::cray_xc30(), true)
        .results
        .swap_remove(0)
}

fn main() {
    let panels = [
        Panel {
            ds: PaperDataset::News20,
            scale: 1.0,
            p: 768,
            families: vec![
                ("CD", false, 1, vec![1, 32, 128]),
                ("accCD", true, 1, vec![1, 16, 128]),
                ("BCD", false, 8, vec![1, 8, 32]),
                ("accBCD", true, 8, vec![1, 8, 16]),
            ],
            iters_cd: 30_000,
            iters_bcd: 4_000,
            lambda_q: 0.90,
        },
        Panel {
            ds: PaperDataset::Covtype,
            scale: 0.25,
            p: 3072,
            families: vec![
                ("CD", false, 1, vec![1, 16, 64]),
                ("accCD", true, 1, vec![1, 32, 128]),
                ("BCD", false, 2, vec![1, 32, 128]),
                ("accBCD", true, 2, vec![1, 32, 128]),
            ],
            iters_cd: 2_000,
            iters_bcd: 1_000,
            lambda_q: 0.90,
        },
        Panel {
            ds: PaperDataset::Url,
            scale: 1.0,
            p: 12_288,
            families: vec![
                ("CD", false, 1, vec![1, 64, 512]),
                ("accCD", true, 1, vec![1, 64, 512]),
                ("BCD", false, 8, vec![1, 8, 32]),
                ("accBCD", true, 8, vec![1, 8, 32]),
            ],
            iters_cd: 20_000,
            iters_bcd: 3_000,
            lambda_q: 0.90,
        },
        Panel {
            ds: PaperDataset::Epsilon,
            scale: 0.5,
            p: 12_288,
            families: vec![
                ("CD", false, 1, vec![1, 64, 256]),
                ("accCD", true, 1, vec![1, 64, 256]),
                ("BCD", false, 8, vec![1, 8, 32]),
                ("accBCD", true, 8, vec![1, 8, 32]),
            ],
            iters_cd: 4_000,
            iters_bcd: 1_000,
            lambda_q: 0.90,
        },
    ];

    let mut sink = Baseline::load_repo();
    for panel in panels {
        let name = panel.ds.info().name;
        let g = panel.ds.generate(panel.scale, 606);
        let lambda = lambda_quantile(&g.dataset, panel.lambda_q);
        eprintln!(
            "fig3: {name} (m={}, n={}, P={}, λ={lambda:.3e})",
            g.dataset.num_points(),
            g.dataset.num_features(),
            panel.p
        );
        let mut series = Table::series(
            format!("fig3_{name}"),
            [
                csv("method", Plain),
                csv("iter", Plain),
                csv("time_s", Sci(6)),
                csv("objective", Sci(9)),
            ],
        );
        let title = format!(
            "Fig. 3 — {name} (P = {}): simulated time to the classical method's final objective",
            panel.p
        );
        let cols = [
            head("method", Plain),
            head("final objective", Sci(4)),
            head("time to target", Secs).key("time_to_target"),
            head("speedup vs classical", Times(2)).key("speedup"),
        ];
        let mut table = Table::new(title, cols);
        for (fam, acc, mu, s_values) in &panel.families {
            let iters = budget(if *mu == 1 {
                panel.iters_cd
            } else {
                panel.iters_bcd
            });
            let mut family_results: Vec<(String, SolveResult)> = Vec::new();
            for &s in s_values {
                let label = if s == 1 {
                    fam.to_string()
                } else {
                    format!("SA-{fam} s={s}")
                };
                let res = run(&g.dataset, lambda, *acc, *mu, s, iters, panel.p);
                for pt in res.trace.points() {
                    series.row(row![label.as_str(), pt.iter, pt.time, pt.value]);
                }
                family_results.push((label, res));
            }
            // Speedup at matched objective: time for each method to reach
            // the *classical* run's final objective.
            let baseline = &family_results[0].1;
            let target = baseline.final_value() * 1.0001;
            let t_base = baseline
                .trace
                .time_to_value(target)
                .unwrap_or(baseline.trace.final_time());
            for (label, res) in &family_results {
                let t = res.trace.time_to_value(target);
                let key = format!("fig3.{name}.{}", key_label(label));
                let speedup = t.map(|t| t_base / t);
                table.keyed_row(key, row![label.as_str(), res.final_value(), t, speedup]);
            }
        }
        table.finish(Some(&mut sink));
        series.finish(None);
    }
    let path = sink.write();
    println!("baseline gauges merged into {}", shown(&path));
}
