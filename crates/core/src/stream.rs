//! Out-of-core data for the solvers: a `sparsela::shard` directory as the
//! matrix behind any [`crate::run`] engine.
//!
//! An s-step outer block touches only the `s·µ` sampled slices, so a
//! [`StreamingMatrix`] keeps just those shards (plus the previous block's,
//! per the two-epoch pin contract) resident under a hard byte budget while
//! the loader thread streams later blocks' shards in — as many blocks
//! ahead as the budget holds — behind the current block's compute (seq),
//! or the next block's behind the in-flight fused allreduce (the
//! overlapping engines, sim and net). The streaming hooks change
//! residency, never values, and the lookahead draws consume the replicated
//! RNG stream in the same global order as the in-memory solvers — so a
//! `Source::Shards` run returns **bitwise** the iterates of its
//! `Source::InMemory` twin (pinned by `tests/engine_matrix.rs`).
//!
//! Layouts: the replicated engines (seq, sim) stream one full-minor-axis
//! view; the socket mesh (net) gives every rank a *windowed* view
//! ([`StreamRankData::split`]) with its own cache, loader and budget — the
//! Lasso layout windows rows of a CSC store and slices the labels
//! conformally, the SVM/K-DCD layout windows columns of a CSR store and
//! replicates them.
//!
//! Telemetry: [`record_shard_stats`] turns a view's I/O counters into the
//! `shard.*`/`io.*` namespaces documented in OBSERVABILITY.md.

use std::io;

use crate::config::LassoConfig;
use crate::exec::{lasso_family, SeqBackend};
use crate::prox::Regularizer;
use crate::trace::SolveResult;
use datagen::{balanced_partition, block_partition, Partition};
use saco_telemetry::Registry;

pub use sparsela::shard::{IoStats, ShardAxis, ShardManifest, ShardStore, StreamingMatrix};

/// Partition the store's minor axis across `p` ranks — by minor-slice nnz
/// (the sidecar histogram; identical integers to the in-memory
/// `row_partition`/`col_partition` weights) when `balanced`, else by
/// count — and return each rank's total nnz alongside.
pub(crate) fn minor_partition(
    store: &ShardStore,
    p: usize,
    balanced: bool,
) -> io::Result<(Partition, Vec<u64>)> {
    let weights = store.minor_nnz()?;
    let part = if balanced {
        balanced_partition(&weights, p)
    } else {
        block_partition(store.manifest().minor, p)
    };
    let gap_nnz = (0..p)
        .map(|r| part.range(r).map(|i| weights[i]).sum())
        .collect();
    Ok((part, gap_nnz))
}

/// Streaming SA-accBCD (Algorithm 2), bitwise [`crate::seq::sa_accbcd`]:
/// the sequential engine on an already-open view, span-free like the
/// paper-named `seq` entry points. `a` must be a CSC-axis view; `b` the
/// full labels. Every other streamed cell goes through [`crate::run`].
///
/// # Panics
/// Panics with re-shard advice if `a` is not a CSC-axis view.
pub fn stream_sa_accbcd<R: Regularizer>(
    a: &StreamingMatrix,
    b: &[f64],
    reg: &R,
    cfg: &LassoConfig,
) -> SolveResult {
    assert_eq!(
        a.store().manifest().axis,
        ShardAxis::Csc,
        "stream_sa_accbcd needs a Csc-axis shard store (Lasso samples columns); \
         re-shard with `saco shard --axis`"
    );
    lasso_family(a, b, reg, cfg, true, &mut SeqBackend::new())
}

/// One rank's share of a shard-backed problem: a windowed streaming view
/// of the store (its own cache, loader, and budget) plus this rank's
/// labels.
#[derive(Debug)]
pub struct StreamRankData {
    /// This rank's windowed view of the shard directory.
    pub mat: StreamingMatrix,
    /// Rank-local labels (CSC store: the window's rows; CSR: all rows).
    pub b: Vec<f64>,
}

impl StreamRankData {
    /// Split a shard store into `p` minor-axis-windowed rank views — the
    /// streaming [`crate::net::LassoRankData::split`] for a CSC store
    /// (row windows, labels sliced conformally) and
    /// [`crate::net::SvmRankData::split`] for a CSR one (column windows,
    /// labels replicated). Each rank gets its own `budget_per_rank` bytes
    /// of resident cache.
    pub fn split(
        store: &ShardStore,
        p: usize,
        balanced: bool,
        budget_per_rank: u64,
    ) -> io::Result<(Partition, Vec<StreamRankData>)> {
        let (part, _) = minor_partition(store, p, balanced)?;
        let labels = store.read_labels()?;
        let rows_windowed = store.manifest().axis == ShardAxis::Csc;
        let ranks = (0..p)
            .map(|r| {
                let range = part.range(r);
                StreamRankData {
                    mat: StreamingMatrix::from_store(
                        store.clone(),
                        budget_per_rank,
                        (range.start, range.end),
                    ),
                    b: if rows_windowed {
                        labels[range].to_vec()
                    } else {
                        labels.clone()
                    },
                }
            })
            .collect();
        Ok((part, ranks))
    }
}

/// Record a streaming view's I/O counters into `registry` under the
/// `shard.*` / `io.*` namespaces (see OBSERVABILITY.md). Call once, after
/// the solve.
pub fn record_shard_stats(registry: &mut Registry, mat: &StreamingMatrix) {
    let s = mat.io_stats();
    let man = mat.store().manifest();
    registry.counter_add("io.bytes_read", s.bytes_read);
    registry.gauge_set("io.read_time", s.read_secs);
    registry.gauge_set("io.stall_time", s.stall_secs);
    registry.gauge_set("io.hidden_time", s.hidden_secs);
    registry.counter_add("shard.reads", s.shard_reads);
    registry.counter_add("shard.prefetch.hits", s.prefetch_hits);
    registry.counter_add("shard.prefetch.misses", s.prefetch_misses);
    registry.counter_add("shard.prefetch.waits", s.prefetch_waits);
    registry.counter_add("shard.evictions", s.evictions);
    registry.gauge_set("shard.resident_bytes", s.resident_bytes as f64);
    registry.gauge_set("shard.resident_hwm_bytes", s.resident_hwm_bytes as f64);
    registry.gauge_set("shard.budget_bytes", mat.budget_bytes() as f64);
    registry.gauge_set("shard.count", man.shards.len() as f64);
    registry.gauge_set("shard.bytes", man.disk_bytes() as f64);
    registry.gauge_set("shard.plan.imbalance", man.nnz_imbalance());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SvmConfig;
    use crate::prox::Lasso;
    use crate::run::{run, Engine, Method, RunError, RunOutcome, RunSpec, Source};
    use crate::seq;
    use datagen::{binary_classification, planted_regression, powerlaw_sparse, shard_plan};
    use mpisim::CostModel;
    use sparsela::io::Dataset;
    use sparsela::shard::{write_csc, write_csr};
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("saco_stream_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn lasso_problem(seed: u64) -> Dataset {
        let a = powerlaw_sparse(160, 90, 0.08, 0.8, seed);
        planted_regression(a, 6, 0.05, seed).dataset
    }

    fn lasso_cfg(s: usize) -> LassoConfig {
        LassoConfig {
            mu: 3,
            s,
            lambda: 0.05,
            seed: 13,
            max_iters: 96,
            trace_every: 24,
            rel_tol: None,
            ..Default::default()
        }
    }

    fn shard_lasso(ds: &Dataset, dir: &Path, nshards: usize) {
        let csc = ds.a.to_csc();
        let weights = datagen::slice_nnz(&csc);
        write_csc(dir, &csc, &shard_plan(&weights, nshards), Some(&ds.b)).expect("write shards");
    }

    const BUDGET: u64 = 1 << 20;

    fn sim(p: usize) -> Engine {
        Engine::sim(p, CostModel::cray_xc30(), true)
    }

    fn net(p: usize) -> Engine {
        Engine::Net { p, balanced: false }
    }

    fn lasso(cfg: &LassoConfig, engine: Engine, source: Source<'_>) -> RunOutcome {
        let (reg, accel) = (&Lasso::new(cfg.lambda), true);
        let method = Method::Lasso { reg, cfg, accel };
        run(&RunSpec::new(method, engine, source)).expect("lasso run")
    }

    #[test]
    fn streaming_seq_lasso_is_bitwise_identical_and_prefetches() {
        let ds = lasso_problem(1);
        let dir = tmp_dir("seq_lasso");
        shard_lasso(&ds, &dir, 12);
        let cfg = lasso_cfg(8);
        let reg = Lasso::new(cfg.lambda);
        let seq_res = seq::sa_accbcd(&ds, &reg, &cfg);
        let a = StreamingMatrix::open(&dir, BUDGET).expect("open");
        let res = stream_sa_accbcd(&a, &ds.b, &reg, &cfg);
        assert_eq!(res.x, seq_res.x, "streamed iterate must be bitwise equal");
        let s = a.io_stats();
        assert!(
            s.prefetch_hits + s.prefetch_waits > 0,
            "lookahead never hit"
        );
        assert!(s.bytes_read > 0);
        let mut registry = Registry::new();
        record_shard_stats(&mut registry, &a);
        assert_eq!(registry.counter("io.bytes_read"), s.bytes_read);
        assert!(registry.gauge("shard.plan.imbalance").expect("gauge") >= 1.0);
        // The same cell through `run` reports the same I/O namespaces.
        let budget = BUDGET;
        let out = lasso(&cfg, Engine::Seq, Source::Shards { dir: &dir, budget });
        assert_eq!(out.result().x, seq_res.x);
        assert_eq!(out.telemetry.counter("io.bytes_read"), out.io[0].bytes_read);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Residency is decided in block order on the solver thread — the
    /// loader only fills what a `prefetch` reserved — so which shards are
    /// read and evicted depends on the selections and the budget alone,
    /// never on how the loads race the solve.
    #[test]
    fn streamed_residency_repeats_exactly_under_an_evicting_budget() {
        let ds = lasso_problem(6);
        let dir = tmp_dir("residency");
        shard_lasso(&ds, &dir, 90);
        let cfg = LassoConfig {
            s: 4,
            max_iters: 480,
            ..lasso_cfg(4)
        };
        let reg = Lasso::new(cfg.lambda);
        let store = ShardStore::open(&dir).expect("open");
        let heap: u64 = store.manifest().shards.iter().map(|m| m.heap_bytes()).sum();
        let budget = heap * 2 / 5;
        let reference = seq::sa_accbcd(&ds, &reg, &cfg);
        let counts = |_| {
            let a = StreamingMatrix::from_store(store.clone(), budget, (0, ds.a.rows()));
            let res = stream_sa_accbcd(&a, &ds.b, &reg, &cfg);
            assert_eq!(res.x, reference.x, "streamed iterate must be bitwise equal");
            let s = a.io_stats();
            (s.shard_reads, s.evictions, s.prefetch_misses)
        };
        let runs: Vec<_> = (0..5).map(counts).collect();
        let (reads, evictions, _) = runs[0];
        assert!(evictions > 0, "the budget must evict");
        assert!(reads > 90, "evicted shards are read again");
        assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A solve broken off by `rel_tol` withdraws the blocks it prefetched
    /// ahead, so a second solve on the same view pins from its own epochs:
    /// under a budget that evicts, it runs to the fresh view's bits, and
    /// the two solves' reads and evictions repeat exactly.
    #[test]
    fn a_view_serves_a_second_solve_after_one_stopped_early() {
        let ds = lasso_problem(6);
        let dir = tmp_dir("reuse");
        shard_lasso(&ds, &dir, 90);
        let cfg = LassoConfig {
            s: 4,
            max_iters: 480,
            ..lasso_cfg(4)
        };
        let stopped = LassoConfig {
            seed: cfg.seed + 1,
            rel_tol: Some(f64::MAX),
            trace_every: 8,
            ..cfg.clone()
        };
        let reg = Lasso::new(cfg.lambda);
        let store = ShardStore::open(&dir).expect("open");
        let heap: u64 = store.manifest().shards.iter().map(|m| m.heap_bytes()).sum();
        let budget = heap * 2 / 5;
        let view = || StreamingMatrix::from_store(store.clone(), budget, (0, ds.a.rows()));
        let fresh = stream_sa_accbcd(&view(), &ds.b, &reg, &cfg);
        let counts = |_| {
            let a = view();
            let first = stream_sa_accbcd(&a, &ds.b, &reg, &stopped);
            assert_eq!(first.iters, 8, "stopped at its first trace point");
            let res = stream_sa_accbcd(&a, &ds.b, &reg, &cfg);
            assert_eq!(res.x, fresh.x, "second solve must match a fresh view's");
            let s = a.io_stats();
            (s.shard_reads, s.evictions, s.prefetch_misses)
        };
        let runs: Vec<_> = (0..3).map(counts).collect();
        assert!(runs[0].1 > 0, "the budget must evict");
        assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_sim_matches_in_memory_charges_exactly() {
        let ds = lasso_problem(2);
        let dir = tmp_dir("sim_lasso");
        shard_lasso(&ds, &dir, 8);
        let cfg = lasso_cfg(6);
        let budget = BUDGET;
        let mem = lasso(&cfg, sim(16), Source::InMemory(&ds));
        let st = lasso(&cfg, sim(16), Source::Shards { dir: &dir, budget });
        assert_eq!(st.result().x, mem.result().x);
        // The sidecar-derived partition and charges must be *identical*,
        // not just close: same weights, same greedy cuts, same clock.
        let (rep, mem_rep) = (st.report.expect("report"), mem.report.expect("report"));
        assert_eq!(rep.critical.messages, mem_rep.critical.messages);
        assert_eq!(rep.running_time(), mem_rep.running_time());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_net_ranks_agree_with_in_memory_net() {
        let ds = lasso_problem(3);
        let dir = tmp_dir("net_lasso");
        shard_lasso(&ds, &dir, 8);
        let cfg = lasso_cfg(4);
        let budget = BUDGET;
        let mem = lasso(&cfg, net(3), Source::InMemory(&ds));
        let streamed = lasso(&cfg, net(3), Source::Shards { dir: &dir, budget });
        assert_eq!(streamed.io.len(), 3, "one windowed view per rank");
        for (sr, mr) in streamed.results.iter().zip(&mem.results) {
            assert_eq!(sr.x, mr.x, "windowed rank view must be bitwise equal");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_svm_seq_and_net_are_bitwise_identical() {
        let a = powerlaw_sparse(120, 70, 0.09, 0.8, 4);
        let ds = binary_classification(a, 0.05, 4).dataset;
        let dir = tmp_dir("svm");
        let weights = datagen::slice_nnz(&ds.a);
        write_csr(&dir, &ds.a, &shard_plan(&weights, 10), Some(&ds.b)).expect("write shards");
        let cfg = SvmConfig {
            loss: crate::config::SvmLoss::L1,
            lambda: 1.0,
            s: 8,
            seed: 17,
            max_iters: 128,
            trace_every: 32,
            gap_tol: None,
        };
        let svm = |engine, source| {
            run(&RunSpec::new(Method::svm(&cfg), engine, source)).expect("svm run")
        };
        let budget = BUDGET;
        let shards = Source::Shards { dir: &dir, budget };
        let seq_res = seq::sa_svm(&ds, &cfg);
        assert_eq!(svm(Engine::Seq, shards).result().x, seq_res.x);
        let mem = svm(net(2), Source::InMemory(&ds));
        let streamed = svm(net(2), shards);
        for (sr, mr) in streamed.results.iter().zip(&mem.results) {
            assert_eq!(sr.x, mr.x);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn axis_mismatch_is_advice_not_a_wrong_answer() {
        let ds = lasso_problem(5);
        let dir = tmp_dir("axis");
        let weights = datagen::slice_nnz(&ds.a);
        write_csr(&dir, &ds.a, &shard_plan(&weights, 4), Some(&ds.b)).expect("write shards");
        // The frozen wrapper takes an open view, so it can only panic…
        let mat = StreamingMatrix::open(&dir, BUDGET).expect("open");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_sa_accbcd(&mat, &ds.b, &Lasso::new(0.1), &lasso_cfg(2))
        }))
        .expect_err("wrong axis must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("saco shard --axis"), "got: {msg}");
        // …while `run` owns the path and returns the typed error, on every
        // engine.
        let budget = BUDGET;
        for engine in [Engine::Seq, sim(4), net(2)] {
            let (reg, cfg, accel) = (&Lasso::new(0.1), &lasso_cfg(2), true);
            let method = Method::Lasso { reg, cfg, accel };
            let err = run(&RunSpec::new(
                method,
                engine,
                Source::Shards { dir: &dir, budget },
            ))
            .expect_err("wrong axis must be an error");
            assert!(matches!(err, RunError::WrongAxis { .. }), "{err:?}");
            assert!(err.to_string().contains("saco shard --axis csc"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
