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
use saco_bench::{budget, fmt_secs, lambda_quantile, print_table, simulate, Csv};
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
        let mut csv = Csv::create(
            &format!("fig3_{name}"),
            &["method", "iter", "time_s", "objective"],
        );
        let mut rows = Vec::new();
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
                    csv.row(&[
                        label.clone(),
                        pt.iter.to_string(),
                        format!("{:.6e}", pt.time),
                        format!("{:.9e}", pt.value),
                    ]);
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
                if let Some(t) = t {
                    sink.set(&format!("{key}.time_to_target"), t);
                    sink.set(&format!("{key}.speedup"), t_base / t);
                }
                rows.push(vec![
                    label.clone(),
                    format!("{:.4e}", res.final_value()),
                    t.map_or("—".into(), fmt_secs),
                    t.map_or("—".into(), |t| format!("{:.2}×", t_base / t)),
                ]);
            }
        }
        let path = csv.finish();
        print_table(
            &format!("Fig. 3 — {name} (P = {}): simulated time to the classical method's final objective", panel.p),
            &["method", "final objective", "time to target", "speedup vs classical"],
            &rows,
        );
        println!("series written to {}", path.display());
    }
    let path = sink.write();
    println!("baseline gauges merged into {}", path.display());
}
