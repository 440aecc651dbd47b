//! Virtual-cluster (SA-)accBCD and (SA-)BCD (`Engine::Sim` × Lasso):
//! sequential numerics, exact per-rank cost attribution over a 1D-row
//! partition. The run is `crate::exec::lasso_family` on a `SimBackend` —
//! by construction the numerics are the sequential engine's, and its
//! collectives and words are what the socket mesh sends (see the
//! cross-engine tests in `tests/engine_matrix.rs`). Trace times are
//! simulated seconds; a chaos plan perturbs *time only*, never values.

#[cfg(test)]
mod tests {
    use crate::config::LassoConfig;
    use crate::prox::Lasso;
    use crate::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
    use crate::seq;
    use datagen::{planted_regression, uniform_sparse};
    use mpisim::CostModel;
    use sparsela::io::Dataset;

    fn sim(ds: &Dataset, c: &LassoConfig, accel: bool, p: usize, balanced: bool) -> RunOutcome {
        let (reg, cfg) = (&Lasso::new(c.lambda), c);
        let engine = Engine::sim(p, CostModel::cray_xc30(), balanced);
        let method = Method::Lasso { reg, cfg, accel };
        run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("sim run")
    }

    fn problem(seed: u64) -> Dataset {
        let a = uniform_sparse(120, 60, 0.15, seed);
        planted_regression(a, 5, 0.05, seed).dataset
    }

    fn cfg(mu: usize, s: usize, iters: usize) -> LassoConfig {
        LassoConfig {
            mu,
            s,
            lambda: 0.05,
            seed: 31,
            max_iters: iters,
            trace_every: 32,
            rel_tol: None,
            ..Default::default()
        }
    }

    #[test]
    fn numerics_match_sequential_solver_exactly() {
        let ds = problem(1);
        let c = cfg(4, 8, 128);
        let lasso = Lasso::new(c.lambda);
        let seq_res = seq::sa_accbcd(&ds, &lasso, &c);
        // bit-identical: the simulated solver runs the same global numerics
        assert_eq!(seq_res.x, sim(&ds, &c, true, 64, false).result().x);
    }

    #[test]
    fn plain_bcd_numerics_match_too() {
        let ds = problem(2);
        let c = cfg(2, 16, 128);
        let lasso = Lasso::new(c.lambda);
        let seq_res = seq::sa_bcd(&ds, &lasso, &c);
        assert_eq!(seq_res.x, sim(&ds, &c, false, 256, true).result().x);
    }

    #[test]
    fn sa_is_faster_in_simulated_time() {
        let ds = problem(3);
        let mut c = cfg(1, 1, 256);
        c.trace_every = 0;
        let classic = sim(&ds, &c, true, 1024, false).report.expect("report");
        c.s = 16;
        let sa = sim(&ds, &c, true, 1024, false).report.expect("report");
        assert!(
            sa.running_time() < classic.running_time(),
            "SA {} vs classic {}",
            sa.running_time(),
            classic.running_time()
        );
        // (iterations-or-outers + initial & final bookkeeping) × log₂P rounds
        assert_eq!(classic.critical.messages, (256 + 2) * 10);
        assert_eq!(sa.critical.messages, (256 / 16 + 2) * 10);
    }

    #[test]
    fn latency_counter_matches_table_one() {
        // L = (H/s)·⌈log₂P⌉ collectives-rounds, plus the 2 bookkeeping
        // reductions (initial + final objective).
        let ds = problem(4);
        let mut c = cfg(1, 8, 256);
        c.trace_every = 0;
        let p = 512; // log2 = 9
        let rep = sim(&ds, &c, true, p, false).report.expect("report");
        let expected = (256 / 8 + 2) * 9;
        assert_eq!(rep.critical.messages, expected as u64);
    }

    #[test]
    fn instrumented_run_reconciles_with_cost_report() {
        let ds = problem(6);
        let c = cfg(2, 8, 96);
        let out = sim(&ds, &c, true, 16, false);
        let (res, rep, telemetry) = (out.result(), out.report.expect("report"), &out.telemetry);
        let crit = telemetry.critical_rank().expect("per-rank tables recorded");
        let t = telemetry.phases(crit).expect("critical rank table");
        assert!((t.comm_time() - rep.critical.comm_time).abs() < 1e-9);
        assert!((t.comp_time() - rep.critical.comp_time).abs() < 1e-9);
        assert!((t.idle_time() - rep.critical.idle_time).abs() < 1e-9);
        assert_eq!(telemetry.counter("solver.iterations"), res.iters as u64);
        assert_eq!(
            telemetry.meta().get("solver").map(String::as_str),
            Some("sim_sa_accbcd")
        );
        // Every trace point carries its phase breakdown; the final one is
        // the end-of-run critical-rank attribution.
        assert!(res.trace.points().iter().all(|p| p.phases.is_some()));
        let last = res.trace.points().last().unwrap().phases.unwrap();
        assert!((last.comm - rep.critical.comm_time).abs() < 1e-9);
        assert!((last.comp - rep.critical.comp_time).abs() < 1e-9);
    }

    #[test]
    fn large_p_runs_fast_enough_to_use() {
        let ds = problem(5);
        let mut c = cfg(1, 32, 512);
        c.trace_every = 128;
        let out = sim(&ds, &c, true, 12_288, false);
        let (res, rep) = (out.result(), out.report.expect("report"));
        assert_eq!(res.iters, 512);
        assert_eq!(rep.ranks, 12_288);
        assert!(res.trace.final_time() > 0.0);
    }
}
