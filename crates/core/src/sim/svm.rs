//! Virtual-cluster (SA-)SVM (`Engine::Sim` × SVM): sequential numerics,
//! exact per-rank cost attribution over a 1D-column partition. The run is
//! `crate::exec::svm_family` on a `SimBackend` — by construction the
//! numerics are the sequential engine's, and its collectives and words
//! are what the socket mesh sends. Trace times are simulated seconds.

#[cfg(test)]
mod tests {
    use crate::config::{SvmConfig, SvmLoss};
    use crate::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
    use crate::seq;
    use datagen::{binary_classification, dense_gaussian, powerlaw_sparse};
    use mpisim::CostModel;
    use sparsela::io::Dataset;

    fn sim(ds: &Dataset, c: &SvmConfig, p: usize, balanced: bool) -> RunOutcome {
        let engine = Engine::sim(p, CostModel::cray_xc30(), balanced);
        run(&RunSpec::new(Method::svm(c), engine, Source::InMemory(ds))).expect("sim run")
    }

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(60, 24, seed);
        binary_classification(a, 0.08, seed).dataset
    }

    fn cfg(loss: SvmLoss, s: usize, iters: usize) -> SvmConfig {
        SvmConfig {
            loss,
            lambda: 1.0,
            s,
            seed: 41,
            max_iters: iters,
            trace_every: 64,
            gap_tol: None,
        }
    }

    #[test]
    fn numerics_match_sequential_solver_exactly() {
        let ds = problem(1);
        let c = cfg(SvmLoss::L1, 8, 256);
        let seq_res = seq::sa_svm(&ds, &c);
        assert_eq!(seq_res.x, sim(&ds, &c, 64, false).result().x);
    }

    #[test]
    fn sa_beats_classic_in_simulated_time() {
        let a = powerlaw_sparse(500, 200, 0.04, 1.0, 2);
        let ds = binary_classification(a, 0.05, 2).dataset;
        let run = |s: usize| {
            let mut c = cfg(SvmLoss::L1, s, 512);
            c.trace_every = 0;
            sim(&ds, &c, 3072, true).report.expect("report")
        };
        let classic = run(1);
        let sa = run(64);
        assert!(
            sa.running_time() < classic.running_time(),
            "SA {} vs classic {}",
            sa.running_time(),
            classic.running_time()
        );
        assert!(sa.critical.messages < classic.critical.messages / 32);
    }

    #[test]
    fn skewed_columns_make_stragglers_without_balancing() {
        // The §VI load-imbalance observation: a naive column split of
        // power-law data concentrates nnz on few ranks; the nnz-balanced
        // split fixes it and the simulated time improves.
        let a = powerlaw_sparse(800, 256, 0.05, 1.3, 3);
        let ds = binary_classification(a, 0.05, 3).dataset;
        let mut c = cfg(SvmLoss::L1, 16, 256);
        c.trace_every = 0;
        let naive = sim(&ds, &c, 64, false).report.expect("report");
        let balanced = sim(&ds, &c, 64, true).report.expect("report");
        assert!(
            balanced.critical.comp_time + balanced.critical.idle_time
                <= naive.critical.comp_time + naive.critical.idle_time + 1e-12,
            "balanced {} vs naive {}",
            balanced.critical.comp_time + balanced.critical.idle_time,
            naive.critical.comp_time + naive.critical.idle_time
        );
    }

    #[test]
    fn instrumented_run_reconciles_with_cost_report() {
        let ds = problem(5);
        let c = cfg(SvmLoss::L1, 8, 128);
        let out = sim(&ds, &c, 8, false);
        let (res, rep, telemetry) = (out.result(), out.report.expect("report"), &out.telemetry);
        let crit = telemetry.critical_rank().expect("per-rank tables recorded");
        let t = telemetry.phases(crit).expect("critical rank table");
        assert!((t.comm_time() - rep.critical.comm_time).abs() < 1e-9);
        assert!((t.comp_time() - rep.critical.comp_time).abs() < 1e-9);
        assert_eq!(telemetry.counter("solver.iterations"), res.iters as u64);
        assert!(res.trace.points().iter().all(|p| p.phases.is_some()));
    }

    #[test]
    fn gap_tolerance_stops_run() {
        let ds = problem(4);
        let mut c = cfg(SvmLoss::L2, 16, 500_000);
        c.gap_tol = Some(1e-1);
        let out = sim(&ds, &c, 16, false);
        let res = out.result();
        assert!(res.iters < 500_000);
        assert!(res.final_value() <= 1e-1);
    }
}
