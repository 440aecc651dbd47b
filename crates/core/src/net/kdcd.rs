//! K-DCD/K-BDCD on the socket mesh: kernel dual coordinate descent over
//! 1D-column-partitioned data.
//!
//! Same layout as the linear SVM ([`super::SvmRankData`]): each rank
//! holds all `m` rows restricted to a contiguous feature block, stored
//! CSR. The dual iterate `α` (the full `SolveResult::x` on every rank),
//! the margins `z`, the labels, the objective trace and the kernel-row
//! cache are replicated — so every rank computes the same
//! miss set, and the one fused allreduce per outer iteration carries the
//! `misses × m` block of *local* dot-product rows (no packed triangle:
//! kernel transforms are nonlinear, so only raw dots can be summed).
//! A block whose sampled rows all hit the cache skips the collective on
//! every rank — the kernel family's extra synchronization saving.
//!
//! The recurrence and the kernel tile live in `crate::exec::kdcd_family`.

#[cfg(test)]
mod tests {
    use crate::config::{KdcdConfig, KdcdTask, SvmLoss};
    use crate::exec::KdcdStats;
    use crate::run::{run, Engine, Method, RunSpec, Source};
    use crate::seq;
    use crate::trace::SolveResult;
    use datagen::{binary_classification, dense_gaussian};
    use sparsela::io::Dataset;
    use sparsela::KernelFn;

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(40, 16, seed);
        binary_classification(a, 0.05, seed).dataset
    }

    fn cfg(task: KdcdTask, s: usize) -> KdcdConfig {
        KdcdConfig {
            task,
            kernel: KernelFn::Rbf { gamma: 0.5 },
            lambda: 0.5,
            s,
            seed: 29,
            max_iters: 128,
            trace_every: 32,
            cache_budget_bytes: 1 << 20,
        }
    }

    fn run_net(ds: &Dataset, p: usize, c: &KdcdConfig) -> Vec<(SolveResult, KdcdStats)> {
        let engine = Engine::Net { p, balanced: false };
        let spec = RunSpec::new(Method::kdcd(c), engine, Source::InMemory(ds));
        let out = run(&spec).expect("net run");
        out.results.into_iter().zip(out.kdcd).collect()
    }

    #[test]
    fn distributed_matches_sequential() {
        // p = 1 is bitwise: one rank's partial dots *are* the sequential
        // dots. At p > 1 the allreduce combines per-rank partial dots up
        // a fixed binomial tree, which reassociates the feature sum —
        // last-ulp differences in the raw dots are expected (and reach
        // the iterate through the kernel transform), so the cross-engine
        // guarantee is agreement to round-off. Bitwise contracts at
        // p > 1 are *within* the engine: every rank replicated, and the
        // same bits on every run (one fixed reduction order).
        let ds = problem(1);
        for p in [1usize, 2, 4] {
            for (task, s) in [(KdcdTask::Svm(SvmLoss::L1), 8usize), (KdcdTask::Ridge, 4)] {
                let c = cfg(task, s);
                let (seq_res, _) = seq::kdcd(&ds, &c);
                let net = run_net(&ds, p, &c);
                for (rank, (res, _)) in net.iter().enumerate() {
                    if p == 1 {
                        assert_eq!(seq_res.x, res.x, "rank={rank} {task:?} s={s}");
                    } else {
                        for (a, b) in seq_res.x.iter().zip(&res.x) {
                            assert!(
                                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                                "p={p} rank={rank} {task:?} s={s}: {a} vs {b}"
                            );
                        }
                    }
                }
                for (rank, (res, _)) in net.iter().enumerate().skip(1) {
                    assert_eq!(net[0].0.x, res.x, "rank {rank} must replicate rank 0");
                }
            }
        }
    }

    #[test]
    fn objective_trace_is_replicated_across_ranks() {
        let ds = problem(2);
        let results = run_net(&ds, 4, &cfg(KdcdTask::Svm(SvmLoss::L2), 8));
        for (r, _) in &results[1..] {
            assert_eq!(r.trace.len(), results[0].0.trace.len());
            for (p, q) in r.trace.points().iter().zip(results[0].0.trace.points()) {
                assert_eq!(p.value, q.value, "objective must be bitwise replicated");
            }
        }
    }

    #[test]
    fn cache_counters_are_replicated() {
        // The miss set is a pure function of the replicated RNG stream,
        // so every rank's cache statistics agree exactly — that is what
        // lets all ranks skip the same collectives.
        let ds = problem(3);
        let results = run_net(&ds, 4, &cfg(KdcdTask::Svm(SvmLoss::L1), 8));
        for (_, stats) in &results[1..] {
            assert_eq!(stats.cache, results[0].1.cache);
            assert_eq!(stats.exchange_skipped, results[0].1.exchange_skipped);
            assert_eq!(stats.exchange_words, results[0].1.exchange_words);
        }
    }
}
