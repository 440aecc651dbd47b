//! Latency-sensitivity sweep: the Figure 4 operating points re-run under
//! increasing injected collective jitter.
//!
//! The paper's argument for s-step methods is that collective latency is
//! the scarce resource at scale. This sweep makes that quantitative on
//! the virtual cluster: for each Fig. 4 dataset at its largest P, the
//! best-s operating point (`saco_bench::best_s`, the plateau rule of
//! `fig4_scaling`) is recomputed under chaos-injected per-collective
//! jitter of growing amplitude. Because SA-s amortizes `H/s` collectives into one, a noisier
//! network pushes the optimum toward larger s — the table below shows
//! `best_s` monotonically nondecreasing in the jitter amplitude, and the
//! SA-over-classic speedup widening.
//!
//! Chaos perturbs *time only*: every run in the sweep produces the same
//! bitwise iterate as the jitter-free run (asserted on every level's
//! s = 2 iterate), so the shift in `best_s` is purely a scheduling
//! effect. Results land in `BENCH_baseline.json` under `chaos.fig4.*`.

use mpisim::{ChaosSpec, CostReport};
use saco::run::RunOutcome;
use saco_bench::baseline::Baseline;
use saco_bench::table::{csv, Fmt::*, Table};
use saco_bench::{best_s, budget, fig4_point, fig4_problem, row, shown, FIG4_PANELS, FIG4_S_SWEEP};
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

fn main() {
    let mut baseline = Baseline::load_repo();
    for (dataset, scale, ps, iters) in FIG4_PANELS {
        let name = dataset.info().name;
        let (ds, lambda) = fig4_problem(dataset, scale);
        let iters = budget(iters);
        let p = ps[2];
        eprintln!("chaos_sweep: {name} at P = {p} (H={iters}, λ={lambda:.3e})");

        // Bitwise reference, from the first (jitter-free) level: jitter
        // must never change the numerics.
        let mut reference: Option<Vec<f64>> = None;
        let title = format!("Latency sensitivity — {name} at P = {p}: best s vs injected jitter");
        let cols = [
            csv("jitter", Sci(9)).head("jitter (s)", Sci(0)),
            csv("classic_time", Sci(9))
                .head("accCD", Secs)
                .key("classic_time"),
            csv("sa_time", Sci(9))
                .head("SA-accCD (best s)", Secs)
                .key("sa_time"),
            csv("best_s", Sci(9)).head("best s", Plain).key("best_s"),
            csv("speedup", Sci(9))
                .head("speedup", Times(2))
                .key("speedup"),
        ];
        let mut table = Table::new(title, cols).csv(format!("chaos_sweep_{name}"));
        let mut prev_best = 0usize;
        for jitter in JITTER_LEVELS {
            let classic = solve(&ds, lambda, 1, iters, p, jitter).report;
            let classic = classic.expect("sim reports costs");
            let sweep: Vec<(usize, CostReport)> = FIG4_S_SWEEP
                .iter()
                .map(|&s| {
                    let out = solve(&ds, lambda, s, iters, p, jitter);
                    if s == FIG4_S_SWEEP[0] {
                        let x = &out.result().x;
                        let first = reference.get_or_insert_with(|| x.clone());
                        assert_eq!(
                            x, first,
                            "chaos jitter changed the numerics at {name} s={s}"
                        );
                    }
                    (s, out.report.expect("sim reports costs"))
                })
                .collect();
            let (s_star, best) = best_s(&sweep);
            assert!(
                *s_star >= prev_best,
                "{name}: best_s regressed under jitter ({s_star} after {prev_best})"
            );
            prev_best = *s_star;
            let (t_classic, t_sa) = (classic.running_time(), best.running_time());
            let key = format!("chaos.fig4.{name}.jitter{jitter:e}");
            let speedup = t_classic / t_sa;
            table.keyed_row(key, row![jitter, t_classic, t_sa, *s_star, speedup]);
        }
        table.finish(Some(&mut baseline));
    }
    let path = baseline.write();
    println!("baseline gauges merged into {}", shown(&path));
}
