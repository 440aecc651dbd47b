//! A miniature version of the paper's performance study. The engine is a
//! loop variable: the same `RunSpec` runs on a real loopback socket mesh
//! (measured) and on the virtual cluster (modeled), comparing classical
//! accCD with SA-accCD for several s — the mesh's wall time, frames and
//! bytes beside the model's time, messages and words; then the virtual
//! cluster repeats the comparison at paper-scale P, where no host can
//! run the ranks.
//!
//! ```sh
//! cargo run --release -p saco --example scaling_study
//! ```

use datagen::{planted_regression, powerlaw_sparse};
use mpisim::CostModel;
use saco::prox::Lasso;
use saco::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
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
    let solve = |engine: Engine, s: usize| -> RunOutcome {
        let (reg, cfg, accel) = (&Lasso::new(lambda), &cfg_for(s), true);
        let method = Method::Lasso { reg, cfg, accel };
        run(&RunSpec::new(method, engine, Source::InMemory(&ds))).expect("run")
    };

    // --- Part 1: the same spec measured on a mesh and modeled at P = 4 ---
    let (p, balanced) = (4, true);
    println!("P = {p}, H = 2000, µ = 1 (accCD family): socket mesh (measured)");
    println!("beside the virtual cluster (modeled)\n");
    println!("  s     wall time   frames    bytes   |  modeled time   messages   words");
    let mut base_final = None;
    for s in [1usize, 4, 16, 64, 256] {
        let net = solve(Engine::Net { p, balanced }, s);
        let sim = solve(Engine::sim(p, model, balanced), s);
        let (t, report) = (&net.telemetry, sim.report.expect("sim reports costs"));
        println!(
            "  {s:>3}   {:>7.2} ms   {:>6}   {:>7}   |  {:>9.3} ms   {:>8}   {:>5}",
            net.wall_secs * 1e3,
            t.counter("net.solve.frames_tx"),
            t.counter("net.solve.bytes_tx"),
            report.running_time() * 1e3,
            report.critical.messages,
            report.critical.words,
        );
        // both engines and every s agree with s = 1 numerically
        let base = *base_final.get_or_insert(sim.result().final_value());
        for f in [net.result().final_value(), sim.result().final_value()] {
            assert!(
                (f - base).abs() <= 1e-9 * base.abs(),
                "SA changed the result: {f} vs {base}"
            );
        }
    }
    println!("\n(the assertion just passed: both engines and every s gave the same objective)");

    // --- Part 2: paper-scale virtual cluster ----------------------------
    println!("\nvirtual cluster: strong scaling at paper-scale P\n");
    println!("  P        accCD        SA-accCD s=32   speedup");
    for p in [768usize, 3072, 12_288] {
        let report = |s| solve(Engine::sim(p, model, balanced), s).report.unwrap();
        let (classic, sa) = (report(1), report(32));
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
