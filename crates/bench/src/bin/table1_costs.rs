//! Table I: theoretical critical-path costs of accBCD vs SA-accBCD, and a
//! validation that the simulator's *measured* counters scale exactly as
//! the closed forms predict (L ∝ 1/s, W ∝ s, F ∝ s at fixed H).

use datagen::{planted_regression, uniform_sparse};
use mpisim::CostModel;
use saco::costmodel::{accbcd_costs, sa_accbcd_costs, CostInputs};
use saco::prox::Lasso;
use saco::run::Method;
use saco::LassoConfig;
use saco_bench::{budget, print_table, Csv};

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
    let classic = accbcd_costs(&base);
    let sa = sa_accbcd_costs(&base);
    print_table(
        "Table I — theoretical costs (H=10k, µ=8, s=32, f=1%, m=1M, n=100k, P=1024)",
        &[
            "algorithm",
            "flops F",
            "memory M",
            "latency L",
            "bandwidth W",
        ],
        &[
            vec![
                "accBCD".into(),
                format!("{:.3e}", classic.flops),
                format!("{:.3e}", classic.memory),
                format!("{:.3e}", classic.latency),
                format!("{:.3e}", classic.bandwidth),
            ],
            vec![
                "SA-accBCD".into(),
                format!("{:.3e}", sa.flops),
                format!("{:.3e}", sa.memory),
                format!("{:.3e}", sa.latency),
                format!("{:.3e}", sa.bandwidth),
            ],
            vec![
                "ratio SA/classic".into(),
                format!("{:.2}", sa.flops / classic.flops),
                format!("{:.2}", sa.memory / classic.memory),
                format!("{:.4}", sa.latency / classic.latency),
                format!("{:.2}", sa.bandwidth / classic.bandwidth),
            ],
        ],
    );

    // --- Measured counters from the simulator at a sweep of s. ----------
    let a = uniform_sparse(2000, 500, 0.02, 77);
    let ds = planted_regression(a, 10, 0.1, 77).dataset;
    let h = budget(1024);
    let p = 256;
    let mut csv = Csv::create(
        "table1_measured",
        &["s", "messages", "words", "flops", "comm_time", "comp_time"],
    );
    let mut rows = Vec::new();
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
        csv.row_f64(&[
            s as f64,
            c.messages as f64,
            c.words as f64,
            c.flops as f64,
            c.comm_time,
            c.comp_time,
        ]);
        let b = baseline.get_or_insert((c.messages, c.words, c.flops));
        rows.push(vec![
            format!("{s}"),
            format!("{} ({:.3}×)", c.messages, c.messages as f64 / b.0 as f64),
            format!("{} ({:.2}×)", c.words, c.words as f64 / b.1 as f64),
            format!("{} ({:.2}×)", c.flops, c.flops as f64 / b.2 as f64),
        ]);
    }
    let path = csv.finish();
    print_table(
        &format!("Measured critical-path counters (H={h}, µ=4, P={p}) — expect L∝1/s, W∝s, F→s×"),
        &[
            "s",
            "messages L (vs s=1)",
            "words W (vs s=1)",
            "flops F (vs s=1)",
        ],
        &rows,
    );
    println!("series written to {}", path.display());
}
