//! Table I: theoretical critical-path costs of accBCD vs SA-accBCD, and a
//! validation that the simulator's *measured* counters scale exactly as
//! the closed forms predict (L ∝ 1/s, W ∝ s, F ∝ s at fixed H).

use datagen::{planted_regression, uniform_sparse};
use mpisim::CostModel;
use saco::costmodel::{accbcd_costs, sa_accbcd_costs, CostInputs};
use saco::prox::Lasso;
use saco::run::Method;
use saco::LassoConfig;
use saco_bench::table::{csv, head, Fmt::*, Table};
use saco_bench::{budget, row};

fn main() {
    // --- The closed forms, evaluated at a representative point. ---------
    let base = CostInputs {
        h: 10_000,
        mu: 8,
        s: 32,
        f: 0.01,
        m: 1_000_000,
        n: 100_000,
        p: 1024,
    };
    let (classic, sa) = (accbcd_costs(&base), sa_accbcd_costs(&base));
    let title = "Table I — theoretical costs (H=10k, µ=8, s=32, f=1%, m=1M, n=100k, P=1024)";
    let cols = [
        head("algorithm", Plain),
        head("flops F", Sci(3)),
        head("memory M", Sci(3)),
        head("latency L", Sci(3)),
        head("bandwidth W", Sci(3)),
    ];
    let mut table = Table::new(title, cols);
    for (name, c) in [("accBCD", &classic), ("SA-accBCD", &sa)] {
        table.row(row![name, c.flops, c.memory, c.latency, c.bandwidth]);
    }
    table.row(row![
        "ratio SA/classic",
        format!("{:.2}", sa.flops / classic.flops),
        format!("{:.2}", sa.memory / classic.memory),
        format!("{:.4}", sa.latency / classic.latency),
        format!("{:.2}", sa.bandwidth / classic.bandwidth),
    ]);
    table.finish(None);

    // --- Measured counters from the simulator at a sweep of s. ----------
    let a = uniform_sparse(2000, 500, 0.02, 77);
    let ds = planted_regression(a, 10, 0.1, 77).dataset;
    let h = budget(1024);
    let p = 256;
    let title =
        format!("Measured critical-path counters (H={h}, µ=4, P={p}) — expect L∝1/s, W∝s, F→s×");
    let cols = [
        csv("s", Sci(9)).head("s", Plain),
        csv("messages", Sci(9)),
        csv("words", Sci(9)),
        csv("flops", Sci(9)),
        csv("comm_time", Sci(9)),
        csv("comp_time", Sci(9)),
        head("messages L (vs s=1)", Plain),
        head("words W (vs s=1)", Plain),
        head("flops F (vs s=1)", Plain),
    ];
    let mut table = Table::new(title, cols).csv("table1_measured");
    let mut baseline: Option<(u64, u64, u64)> = None;
    for s in [1usize, 2, 4, 8, 16, 32] {
        let cfg = LassoConfig {
            mu: 4,
            s,
            lambda: 0.1,
            seed: 7,
            max_iters: h,
            trace_every: 0,
            rel_tol: None,
            ..Default::default()
        };
        let method = Method::Lasso {
            reg: &Lasso::new(0.1),
            cfg: &cfg,
            accel: true,
        };
        let rep = saco_bench::simulate(method, &ds, p, CostModel::cray_xc30(), false)
            .report
            .expect("sim reports costs");
        let c = rep.critical;
        let b = baseline.get_or_insert((c.messages, c.words, c.flops));
        let (msgs, words) = (c.messages as f64, c.words as f64);
        table.row(row![
            s,
            msgs,
            words,
            c.flops as f64,
            c.comm_time,
            c.comp_time,
            format!("{} ({:.3}×)", c.messages, msgs / b.0 as f64),
            format!("{} ({:.2}×)", c.words, words / b.1 as f64),
            format!("{} ({:.2}×)", c.flops, c.flops as f64 / b.2 as f64),
        ]);
    }
    table.finish(None);
}
