//! Latency-sensitivity sweep: the Figure 4 operating points re-run under
//! increasing injected collective jitter.
//!
//! The paper's argument for s-step methods is that collective latency is
//! the scarce resource at scale. This sweep makes that quantitative on
//! the virtual cluster: for each Fig. 4 dataset at its largest P, the
//! best-s operating point (same 2%-plateau rule as `fig4_scaling`) is
//! recomputed under chaos-injected per-collective jitter of growing
//! amplitude. Because SA-s amortizes `H/s` collectives into one, a noisier
//! network pushes the optimum toward larger s — the table below shows
//! `best_s` monotonically nondecreasing in the jitter amplitude, and the
//! SA-over-classic speedup widening.
//!
//! Chaos perturbs *time only*: every run in the sweep produces the same
//! bitwise iterate as the jitter-free run (enforced by an assert on the
//! final objective), so the shift in `best_s` is purely a scheduling
//! effect. Results land in `BENCH_baseline.json` under `chaos.fig4.*`.

use datagen::PaperDataset;
use mpisim::{ChaosSpec, CostReport};
use saco::run::RunOutcome;
use saco_bench::baseline::Baseline;
use saco_bench::{budget, fig4_point, fmt_secs, lambda_quantile, print_table, Csv};
use sparsela::io::Dataset;

/// Jitter amplitudes in seconds, spanning "quiet fabric" to "noisy cloud"
/// relative to the Cray XC30 model's α = 8 µs latency term.
const JITTER_LEVELS: [f64; 4] = [0.0, 2e-5, 1e-4, 5e-4];

/// One Fig. 4 point under `jitter` seconds of injected per-collective
/// latency (0 = the clean cluster).
fn solve(ds: &Dataset, lambda: f64, s: usize, iters: usize, p: usize, jitter: f64) -> RunOutcome {
    let chaos = (jitter != 0.0).then(|| ChaosSpec {
        seed: 99,
        jitter,
        ..Default::default()
    });
    fig4_point(ds, lambda, s, iters, p, chaos)
}

fn sim(ds: &Dataset, lambda: f64, s: usize, iters: usize, p: usize, jitter: f64) -> CostReport {
    solve(ds, lambda, s, iters, p, jitter)
        .report
        .expect("sim reports costs")
}

/// Smallest s whose running time is within 2% of the sweep minimum — the
/// same plateau rule as `fig4_scaling`, so jitter-free rows reproduce the
/// Fig. 4 operating points.
fn best_s(sweep: &[(usize, CostReport)]) -> (usize, f64) {
    let min_time = sweep
        .iter()
        .map(|(_, r)| r.running_time())
        .fold(f64::INFINITY, f64::min);
    sweep
        .iter()
        .find(|(_, r)| r.running_time() <= min_time * 1.02)
        .map(|(s, r)| (*s, r.running_time()))
        .expect("nonempty s sweep")
}

fn main() {
    let panels: [(PaperDataset, f64, usize, usize); 4] = [
        (PaperDataset::News20, 1.0, 768, 20_000),
        (PaperDataset::Covtype, 0.25, 3072, 8_000),
        (PaperDataset::Url, 1.0, 12_288, 20_000),
        (PaperDataset::Epsilon, 0.5, 12_288, 8_000),
    ];
    let s_sweep = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];

    let mut baseline = Baseline::load_repo();
    for (ds, scale, p, iters_raw) in panels {
        let name = ds.info().name;
        let g = ds.generate(scale, 808);
        let lambda = lambda_quantile(&g.dataset, 0.9);
        let iters = budget(iters_raw);
        eprintln!("chaos_sweep: {name} at P = {p} (H={iters}, λ={lambda:.3e})");

        // Bitwise reference: jitter must never change the numerics.
        let reference = solve(&g.dataset, lambda, s_sweep[0], iters, p, 0.0);

        let mut rows = Vec::new();
        let mut csv = Csv::create(
            &format!("chaos_sweep_{name}"),
            &["jitter", "classic_time", "sa_time", "best_s", "speedup"],
        );
        let mut prev_best = 0usize;
        for &jitter in &JITTER_LEVELS {
            let classic = sim(&g.dataset, lambda, 1, iters, p, jitter);
            let sweep: Vec<(usize, CostReport)> = s_sweep
                .iter()
                .map(|&s| {
                    if s == s_sweep[0] && jitter > 0.0 {
                        let out = solve(&g.dataset, lambda, s, iters, p, jitter);
                        assert_eq!(
                            out.result().x,
                            reference.result().x,
                            "chaos jitter changed the numerics at {name} s={s}"
                        );
                        (s, out.report.expect("sim reports costs"))
                    } else {
                        (s, sim(&g.dataset, lambda, s, iters, p, jitter))
                    }
                })
                .collect();
            let (s_star, sa_time) = best_s(&sweep);
            assert!(
                s_star >= prev_best,
                "{name}: best_s regressed under jitter ({s_star} after {prev_best})"
            );
            prev_best = s_star;
            let speedup = classic.running_time() / sa_time;
            let key = format!("chaos.fig4.{name}.jitter{jitter:e}");
            baseline.set(&format!("{key}.best_s"), s_star as f64);
            baseline.set(&format!("{key}.classic_time"), classic.running_time());
            baseline.set(&format!("{key}.sa_time"), sa_time);
            baseline.set(&format!("{key}.speedup"), speedup);
            csv.row_f64(&[
                jitter,
                classic.running_time(),
                sa_time,
                s_star as f64,
                speedup,
            ]);
            rows.push(vec![
                format!("{jitter:.0e}"),
                fmt_secs(classic.running_time()),
                fmt_secs(sa_time),
                s_star.to_string(),
                format!("{speedup:.2}×"),
            ]);
        }
        let path = csv.finish();
        print_table(
            &format!("Latency sensitivity — {name} at P = {p}: best s vs injected jitter"),
            &[
                "jitter (s)",
                "accCD",
                "SA-accCD (best s)",
                "best s",
                "speedup",
            ],
            &rows,
        );
        println!("series written to {}", path.display());
    }
    let path = baseline.write();
    println!("baseline gauges merged into {}", path.display());
}
