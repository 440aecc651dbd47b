//! A miniature version of the paper's performance study. The engine is a
//! loop variable: the same `RunSpec` runs on a real (thread-backed)
//! message-passing machine and on the virtual cluster, comparing classical
//! accCD with SA-accCD for several s and printing the modeled time and
//! counter breakdown; then the virtual cluster repeats the comparison at
//! paper-scale P, where OS threads cannot follow.
//!
//! ```sh
//! cargo run --release -p saco --example scaling_study
//! ```

use datagen::{planted_regression, powerlaw_sparse};
use mpisim::{CostModel, CostReport};
use saco::prox::Lasso;
use saco::run::{run, Engine, Method, RunSpec, Source};
use saco::LassoConfig;

fn main() {
    let a = powerlaw_sparse(4000, 1500, 0.01, 0.9, 23);
    let ds = planted_regression(a, 15, 0.1, 23).dataset;
    let lambda = 1.0;
    let cfg_for = |s: usize| LassoConfig {
        mu: 1,
        s,
        lambda,
        seed: 12,
        max_iters: 2000,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let model = CostModel::cray_xc30();
    let solve = |engine: Engine, s: usize| -> (f64, CostReport) {
        let (reg, cfg, accel) = (&Lasso::new(lambda), &cfg_for(s), true);
        let method = Method::Lasso { reg, cfg, accel };
        let out = run(&RunSpec::new(method, engine, Source::InMemory(&ds))).expect("run");
        let report = out.report.expect("modeled engines report costs");
        (out.result().final_value(), report)
    };
    let (p, balanced) = (8, true);
    let thread_machine = Engine::Dist { p, model, balanced };
    let engines = [
        ("thread machine (real SPMD ranks)", thread_machine),
        (
            "virtual cluster (same charges, no threads)",
            Engine::sim(p, model, balanced),
        ),
    ];

    // --- Part 1: the same spec on two engines at P = 8 -------------------
    let mut base_final = None;
    for (name, engine) in engines {
        println!("{name}: P = {p}, H = 2000, µ = 1 (accCD family)\n");
        println!("  s     simulated time   messages   words        flops (critical rank)");
        for s in [1usize, 4, 16, 64, 256] {
            let (f, report) = solve(engine, s);
            let c = report.critical;
            println!(
                "  {s:>3}   {:>11.3} ms   {:>8}   {:>9}    {}",
                report.running_time() * 1e3,
                c.messages,
                c.words,
                c.flops
            );
            // every engine and every s agree with s = 1 numerically
            let base = *base_final.get_or_insert(f);
            assert!(
                (f - base).abs() <= 1e-9 * base.abs(),
                "SA changed the result: {f} vs {base}"
            );
        }
        println!();
    }
    println!("(the assertion just passed: every engine and every s gave the same objective)");

    // --- Part 2: paper-scale virtual cluster ----------------------------
    println!("\nvirtual cluster: strong scaling at paper-scale P\n");
    println!("  P        accCD        SA-accCD s=32   speedup");
    for p in [768usize, 3072, 12_288] {
        let (_, classic) = solve(Engine::sim(p, model, balanced), 1);
        let (_, sa) = solve(Engine::sim(p, model, balanced), 32);
        println!(
            "  {p:>6}   {:>8.2} ms   {:>11.2} ms   {:>6.2}×",
            classic.running_time() * 1e3,
            sa.running_time() * 1e3,
            classic.running_time() / sa.running_time()
        );
    }
    println!("\nreading: the SA advantage grows with P — latency scales with log P");
    println!("while per-rank flops shrink with 1/P, exactly the paper's regime.");
}
