//! Table V: SA-SVM-L1 running time and speedup over SVM-L1 at a duality
//! gap tolerance of 1e-1, on the paper's dataset/rank/s combinations:
//! news20.binary (P = 576, s = 64), rcv1.binary (P = 240, s = 64),
//! gisette (P = 3072, s = 128), λ = 1.
//!
//! The paper attained 2.1× / 1.4× / 4× despite the 1D-column-partition
//! load imbalance on the sparse text datasets; this binary reports both
//! the naive (paper-like) and nnz-balanced partitions to quantify that
//! straggler effect (§VI: "Eliminating this overhead in future work would
//! further improve speedups").

use datagen::{PaperDataset, Task};
use mpisim::CostModel;
use saco::run::Method;
use saco::{SvmConfig, SvmLoss};
use saco_bench::table::{csv, head, Fmt::*, Table};
use saco_bench::{budget, fmt_secs, row};

fn main() {
    let setups = [
        (PaperDataset::News20Binary, 576usize, 64usize, 400_000usize),
        (PaperDataset::Rcv1Binary, 240, 64, 300_000),
        (PaperDataset::Gisette, 3072, 128, 40_000),
    ];
    let tol = 1e-1;
    let title =
        "Table V — SA-SVM-L1 speedups at duality-gap tolerance 1e-1 (paper: 2.1× / 1.4× / 4×)";
    let cols = [
        csv("dataset", Plain).head("dataset", Plain),
        csv("p", Plain),
        csv("s", Plain),
        csv("balanced", Plain),
        csv("time_classic", Sci(6)),
        csv("time_sa", Sci(6)),
        head("ranks", Plain),
        head("partition", Plain),
        head("classic", Plain),
        head("SA", Plain),
        csv("speedup", Fixed(3)).head("speedup", Times(1)),
    ];
    let mut table = Table::new(title, cols).csv("table5_svm");
    for (ds, p, s, iters_raw) in setups {
        let name = ds.info().name;
        let g = ds.generate_for_task(Task::Classification, 1.0, 909);
        let iters = budget(iters_raw);
        eprintln!(
            "table5: {name} (m={}, n={}, P={p}, s={s}, H≤{iters})",
            g.dataset.num_points(),
            g.dataset.num_features()
        );
        for balanced in [false, true] {
            let run = |s: usize| {
                let cfg = SvmConfig {
                    loss: SvmLoss::L1,
                    lambda: 1.0,
                    s,
                    seed: 5050,
                    max_iters: iters,
                    trace_every: (iters / 100).max(1),
                    gap_tol: Some(tol),
                };
                let model = CostModel::cray_xc30();
                saco_bench::simulate(Method::svm(&cfg), &g.dataset, p, model, balanced)
                    .results
                    .swap_remove(0)
            };
            let classic = run(1);
            let sa = run(s);
            let t_classic = classic
                .trace
                .time_to_value(tol)
                .unwrap_or(classic.trace.final_time());
            let t_sa = sa.trace.time_to_value(tol).unwrap_or(sa.trace.final_time());
            let partition = if balanced {
                "nnz-balanced"
            } else {
                "naive (paper-like)"
            };
            table.row(row![
                name,
                p,
                s,
                balanced.to_string(),
                t_classic,
                t_sa,
                format!("P = {p}"),
                partition,
                format!("SVM-L1: {}", fmt_secs(t_classic)),
                format!("SA-SVM-L1 (s={s}): {}", fmt_secs(t_sa)),
                t_classic / t_sa,
            ]);
        }
    }
    table.finish(None);
}
