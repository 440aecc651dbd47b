//! Virtual-cluster K-DCD/K-BDCD (`Engine::Sim` × K-DCD): sequential
//! numerics, exact per-rank cost attribution over a 1D-column (feature)
//! partition. The run is `crate::exec::kdcd_family` on a `SimBackend` —
//! the kernel-row tiles are charged per rank from the partition's nnz
//! counts, and the fused exchange is the same `misses × m` allreduce the
//! socket mesh moves, word for word. Under a chaos plan the shared
//! driver checkpoints at block boundaries; iterates stay bitwise.

#[cfg(test)]
mod tests {
    use crate::config::{KdcdConfig, KdcdTask, SvmLoss};
    use crate::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
    use crate::seq;
    use datagen::{binary_classification, dense_gaussian};
    use mpisim::{ChaosSpec, CostModel};
    use sparsela::io::Dataset;
    use sparsela::KernelFn;

    fn sim(ds: &Dataset, c: &KdcdConfig, p: usize, chaos: Option<ChaosSpec>) -> RunOutcome {
        let (model, balanced) = (CostModel::cray_xc30(), false);
        let engine = Engine::Sim {
            p,
            model,
            balanced,
            chaos,
        };
        run(&RunSpec::new(Method::kdcd(c), engine, Source::InMemory(ds))).expect("sim run")
    }

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(48, 16, seed);
        binary_classification(a, 0.05, seed).dataset
    }

    fn cfg(s: usize) -> KdcdConfig {
        KdcdConfig {
            task: KdcdTask::Svm(SvmLoss::L1),
            kernel: KernelFn::Rbf { gamma: 0.5 },
            lambda: 0.5,
            s,
            seed: 23,
            max_iters: 160,
            trace_every: 40,
            cache_budget_bytes: 1 << 20,
        }
    }

    #[test]
    fn numerics_match_sequential_solver_exactly() {
        let ds = problem(1);
        let c = cfg(8);
        let (seq_res, seq_stats) = seq::kdcd(&ds, &c);
        let out = sim(&ds, &c, 16, None);
        let sim_stats = out.kdcd[0];
        assert_eq!(seq_res.x, out.result().x);
        // Replicated cache ⇒ replicated hit/miss/eviction stream.
        assert_eq!(seq_stats.cache, sim_stats.cache);
        assert_eq!(seq_stats.exchange_skipped, sim_stats.exchange_skipped);
    }

    #[test]
    fn all_hit_blocks_skip_the_collective() {
        // With a persistent cache and enough iterations over few rows,
        // some blocks miss nothing — those blocks must move zero words
        // and skip the allreduce entirely on every rank.
        let a = dense_gaussian(12, 8, 2);
        let ds = binary_classification(a, 0.05, 2).dataset;
        let mut c = cfg(4);
        c.max_iters = 200;
        let out = sim(&ds, &c, 4, None);
        let (stats, rep, telemetry) = (out.kdcd[0], out.report.expect("report"), &out.telemetry);
        assert!(stats.exchange_skipped > 0, "expected all-hit blocks");
        let rounds = 200 / 4;
        assert!(
            rep.critical.messages < rounds,
            "skipped blocks must not message: {} rounds, {} messages",
            rounds,
            rep.critical.messages
        );
        assert_eq!(
            telemetry.counter("kmethod.exchange.skipped"),
            stats.exchange_skipped
        );
        assert!(telemetry.counter("kmethod.cache.hits") > 0);
    }

    #[test]
    fn instrumented_run_reconciles_with_cost_report() {
        let ds = problem(5);
        let c = cfg(8);
        let out = sim(&ds, &c, 8, None);
        let (res, stats) = (out.result(), out.kdcd[0]);
        let (rep, telemetry) = (out.report.expect("report"), &out.telemetry);
        let crit = telemetry.critical_rank().expect("per-rank tables recorded");
        let t = telemetry.phases(crit).expect("critical rank table");
        assert!((t.comm_time() - rep.critical.comm_time).abs() < 1e-9);
        assert!((t.comp_time() - rep.critical.comp_time).abs() < 1e-9);
        assert_eq!(telemetry.counter("solver.iterations"), res.iters as u64);
        assert_eq!(
            telemetry.counter("kmethod.exchange.words"),
            stats.exchange_words
        );
        assert!(res.trace.points().iter().all(|p| p.phases.is_some()));
    }

    #[test]
    fn chaos_recovery_preserves_iterates() {
        let ds = problem(7);
        let c = cfg(8);
        let clean = sim(&ds, &c, 8, None);
        let spec = ChaosSpec {
            seed: 9,
            skew: 0.2,
            jitter: 1e-4,
            straggle: 0.05,
            fail: Some((3, 2)),
        };
        let chaotic = sim(&ds, &c, 8, Some(spec));
        assert_eq!(
            clean.result().x,
            chaotic.result().x,
            "chaos must not perturb numerics"
        );
        assert!(chaotic.telemetry.meta().contains_key("chaos.seed"));
    }
}
