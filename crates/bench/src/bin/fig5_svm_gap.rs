//! Figure 5: duality gap vs iteration for SVM-L1, SVM-L2 and their SA
//! variants (s = 500) on the w1a / leu / duke stand-ins, λ = 1.
//!
//! The paper's reading: the SA curves lie on top of the classical ones
//! (numerical stability), and SVM-L2 converges faster than SVM-L1 because
//! the loss is smoothed.

use datagen::{PaperDataset, Task};
use saco::seq::{sa_svm, svm};
use saco::{SvmConfig, SvmLoss};
use saco_bench::table::{head, Fmt::*, Table};
use saco_bench::{budget, row};

fn main() {
    // (dataset, iterations, paper's gap tolerance marker)
    let setups = [
        (PaperDataset::W1a, 800_000usize, 1e-6f64),
        (PaperDataset::Leu, 2_000, 1e-8),
        (PaperDataset::Duke, 4_000, 1e-8),
    ];
    for (ds, iters_raw, tol) in setups {
        let name = ds.info().name;
        let g = ds.generate_for_task(Task::Classification, 1.0, 404);
        let iters = budget(iters_raw);
        let trace_every = (iters / 50).max(1);
        let cfg = |loss: SvmLoss, s: usize| SvmConfig {
            loss,
            lambda: 1.0,
            s,
            seed: 1717,
            max_iters: iters,
            trace_every,
            gap_tol: None,
        };
        eprintln!(
            "fig5: {name} (m={}, n={}, H={iters}, tol marker {tol:.0e})",
            g.dataset.num_points(),
            g.dataset.num_features()
        );
        let runs = vec![
            ("SVM-L1".to_string(), svm(&g.dataset, &cfg(SvmLoss::L1, 1))),
            (
                "SA-SVM-L1 s=500".to_string(),
                sa_svm(&g.dataset, &cfg(SvmLoss::L1, 500)),
            ),
            ("SVM-L2".to_string(), svm(&g.dataset, &cfg(SvmLoss::L2, 1))),
            (
                "SA-SVM-L2 s=500".to_string(),
                sa_svm(&g.dataset, &cfg(SvmLoss::L2, 500)),
            ),
        ];

        let series = Table::traces(format!("fig5_{}", name.replace('.', "_")), &runs);

        let cols = [
            head("method", Plain),
            head("initial gap", Sci(4)),
            head("final gap", Sci(4)),
            head(format!("iters to gap ≤ {tol:.0e}"), Plain),
        ];
        let mut table = Table::new(format!("Fig. 5 — {name}: duality gap (λ = 1)"), cols);
        for (n, r) in &runs {
            let reached = r.trace.iters_to_value(tol);
            let reached = reached.map_or("not reached".into(), |it| it.to_string());
            table.row(row![
                n.as_str(),
                r.trace.initial_value(),
                r.final_value(),
                reached
            ]);
        }
        table.finish(None);
        series.finish(None);

        // The SA ≡ classical check the figure makes visually (difference
        // normalized by the initial gap, since converged gaps sit at
        // round-off where a ratio of two machine zeros is meaningless).
        for (pair_a, pair_b) in [(0usize, 1usize), (2, 3)] {
            let diff = (runs[pair_a].1.final_value() - runs[pair_b].1.final_value()).abs()
                / runs[pair_a].1.trace.initial_value();
            println!(
                "final-gap difference ({} vs {}) / initial gap: {diff:.2e}",
                runs[pair_a].0, runs[pair_b].0
            );
        }
    }
}
