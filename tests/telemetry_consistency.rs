//! Telemetry ↔ cost-model consistency: the phase tables the telemetry
//! subsystem accumulates must reconcile, rank by rank and on the critical
//! path, with the `mpisim` cost counters the paper's tables are built
//! from — and the emitted run report must be byte-stable across repeated
//! same-seed runs.

use datagen::PaperDataset;
use mpisim::telemetry::{run_report_json, Registry};
use mpisim::{CostModel, CostReport};
use saco::prox::Lasso;
use saco::run::{run, Engine, Method, RunSpec, Source};
use saco::LassoConfig;
use sparsela::io::Dataset;

const P: usize = 6;

fn dataset() -> Dataset {
    PaperDataset::News20.generate(0.04, 3).dataset
}

fn config() -> LassoConfig {
    LassoConfig {
        mu: 4,
        s: 8,
        lambda: 0.2,
        seed: 44,
        max_iters: 160,
        trace_every: 40,
        rel_tol: None,
        ..Default::default()
    }
}

fn run_instrumented(ds: &Dataset) -> (CostReport, Registry) {
    let cfg = config();
    let (reg, cfg, accel) = (&Lasso::new(cfg.lambda), &cfg, true);
    let method = Method::Lasso { reg, cfg, accel };
    let (p, model, balanced) = (P, CostModel::cray_xc30(), false);
    let engine = Engine::Dist { p, model, balanced };
    let out = run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("dist run");
    (out.report.expect("dist reports costs"), out.telemetry)
}

#[test]
fn thread_machine_telemetry_reconciles_with_cost_report() {
    let ds = dataset();
    let (rep, registry) = run_instrumented(&ds);

    // Critical rank: the registry picks the same rank the cost report's
    // critical path was taken from, and its phase table reproduces the
    // report's comm/comp/idle split to round-off.
    let crit = registry
        .critical_rank()
        .expect("instrumented run has ranks");
    let table = registry
        .phases(crit)
        .expect("critical rank has a phase table");
    assert!(
        (table.comm_time() - rep.critical.comm_time).abs() < 1e-9,
        "comm: table {} vs report {}",
        table.comm_time(),
        rep.critical.comm_time
    );
    assert!(
        (table.comp_time() - rep.critical.comp_time).abs() < 1e-9,
        "comp: table {} vs report {}",
        table.comp_time(),
        rep.critical.comp_time
    );
    assert!(
        (table.idle_time() - rep.critical.idle_time).abs() < 1e-9,
        "idle: table {} vs report {}",
        table.idle_time(),
        rep.critical.idle_time
    );
    assert!(
        (table.total_time() - rep.running_time()).abs() < 1e-9,
        "total: table {} vs report {}",
        table.total_time(),
        rep.running_time()
    );
}

#[test]
fn every_rank_has_a_phase_table_and_totals_cover_all_ranks() {
    let ds = dataset();
    let (_, registry) = run_instrumented(&ds);

    let ranks: Vec<usize> = registry.rank_tables().keys().copied().collect();
    assert_eq!(ranks, (0..P).collect::<Vec<_>>(), "one table per rank");

    // phase_totals is the merge of all rank tables; its time must equal
    // the per-rank sum (merge is associative, so order is irrelevant).
    let sum: f64 = registry
        .rank_tables()
        .values()
        .map(|t| t.total_time())
        .sum();
    assert!((registry.phase_totals().total_time() - sum).abs() < 1e-9);
}

#[test]
fn same_seed_runs_emit_byte_identical_reports() {
    let ds = dataset();
    let (_, reg_a) = run_instrumented(&ds);
    let (_, reg_b) = run_instrumented(&ds);
    assert_eq!(
        run_report_json(&reg_a),
        run_report_json(&reg_b),
        "run report must be deterministic for a fixed seed"
    );
}
