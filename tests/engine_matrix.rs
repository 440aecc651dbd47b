//! The cross-engine equivalence matrix.
//!
//! Every solver family is one backend-generic recurrence
//! (`exec::{lasso_family, svm_family, kdcd_family}`) run on three
//! engines, so the contract is testable as a matrix rather than pairwise.
//! The product is one walk over a table of rows (`walk_product`), run
//! once per test binary; one test per contract and family judges the
//! cells it ran, and each cell holds:
//!
//! * seq ≡ sim **bitwise** (the virtual cluster runs the identical global
//!   numerics and only attaches charges), and the seq cell is bitwise the
//!   `seq::*` shim a user calls;
//! * net ≡ seq **bitwise at p = 1** (one rank holds the whole matrix and
//!   the reduction is the identity), and to 1e-9 at p > 1 (the reduction
//!   tree re-associates sums);
//! * all ranks of a net run agree **bitwise** (replicated recurrences and
//!   traces);
//! * sim prices what net executes: its allreduces and payload words are
//!   the frames and bytes the socket mesh sends, by the tree identity;
//! * streamed ≡ in-memory **bitwise**, and on sim the two charge the same
//!   counts;
//! * every cell's objective bits are pinned in `tests/goldens/cells.txt`.
//!
//! Overlap is not an axis: sim and net always hide the fused allreduce
//! behind the next block, seq never does, and seq ≡ sim ≡ net(p = 1)
//! bitwise is the proof that the window moves no bit. The SA-equivalence
//! tests hold each SA method to its classical counterpart along the whole
//! trace (the paper's exact-arithmetic claim, Table III).

use datagen::{binary_classification, dense_gaussian, planted_regression, uniform_sparse};
use datagen::{shard_plan, slice_nnz, PaperDataset, Task};
use mpisim::telemetry::Registry;
use mpisim::{CostModel, CostReport};
use saco::prox::{ElasticNet, GroupLasso, Lasso, Regularizer};
use saco::run::{run, Engine, Method, RunError, RunOutcome, RunSpec, Source};
use saco::seq::{acc_bcd, bcd, kdcd, sa_accbcd, sa_bcd, sa_svm, svm};
use saco::{KdcdConfig, KdcdStats, KdcdTask, LassoConfig, SolveResult, SvmConfig, SvmLoss};
use sparsela::io::Dataset;
use sparsela::shard::{write_csc, write_csr};
use sparsela::KernelFn;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

// The engine axis: every rank engine on the paper's machine model, by
// count (`balanced = false`).

fn sim(p: usize) -> Engine {
    Engine::sim(p, CostModel::cray_xc30(), false)
}

fn net(p: usize) -> Engine {
    Engine::Net { p, balanced: false }
}

fn mem(ds: &Dataset) -> Source<'_> {
    Source::InMemory(ds)
}

/// A streamed source under a budget tight enough to evict.
fn shards(dir: &Path) -> Source<'_> {
    Source::Shards {
        dir,
        budget: 64 * 1024,
    }
}

/// One cell of the product; panics only where the cell must exist.
fn cell<R: Regularizer>(method: Method<'_, R>, engine: Engine, source: Source<'_>) -> RunOutcome {
    run(&RunSpec::new(method, engine, source)).expect("this cell of the product exists")
}

fn lasso<'a, R: Regularizer>(reg: &'a R, cfg: &'a LassoConfig, accel: bool) -> Method<'a, R> {
    Method::Lasso { reg, cfg, accel }
}

fn lasso_ds(seed: u64) -> Dataset {
    let a = uniform_sparse(120, 60, 0.15, seed);
    planted_regression(a, 5, 0.05, seed).dataset
}

/// A Lasso problem whose every column stores every row, so its sampled
/// Gram and cross products run the full-slice lane block — in local
/// coordinates too: each rank's row block of a dense matrix is dense.
fn dense_lasso_ds(seed: u64) -> Dataset {
    let a = dense_gaussian(48, 16, seed);
    planted_regression(a, 5, 0.05, seed).dataset
}

fn svm_ds(seed: u64) -> Dataset {
    let a = uniform_sparse(90, 30, 0.3, seed);
    binary_classification(a, 0.08, seed).dataset
}

/// An SVM config (λ = 1, no gap tolerance) with `iters` iterations traced
/// every `trace` of them.
fn svm_cfg(loss: SvmLoss, s: usize, seed: u64, iters: usize, trace: usize) -> SvmConfig {
    SvmConfig {
        loss,
        lambda: 1.0,
        s,
        seed,
        max_iters: iters,
        trace_every: trace,
        gap_tol: None,
    }
}

fn lasso_cfg(mu: usize, s: usize) -> LassoConfig {
    LassoConfig {
        mu,
        s,
        lambda: 0.05,
        seed: 93,
        max_iters: 96,
        trace_every: 24,
        rel_tol: None,
        ..Default::default()
    }
}

/// `SACO_SIMD` must be unobservable end to end: the same solve run under
/// the scalar and the auto (widest-ISA) microkernel builds yields
/// bitwise-identical iterates on every engine — seq, the virtual cluster
/// and the socket mesh (p = 2). The lane schedule, not the ISA, is the
/// numerics contract; CI runs the whole matrix again under each
/// `SACO_SIMD` value to pin the same property through the env-var path.
#[test]
fn simd_mode_is_unobservable_across_engines() {
    use sparsela::simd::{self, Mode};
    let (reg, c) = (Lasso::new(0.05), lasso_cfg(4, 8));
    let ambient = simd::mode();
    // Sparse columns take the scatter lane block, dense ones the
    // full-slice block; each has its own AVX2 / AVX-512 builds.
    for ds in [lasso_ds(1), dense_lasso_ds(1)] {
        let run = |mode: Mode| {
            simd::set_mode(mode);
            [Engine::Seq, sim(2), net(2)].map(|e| {
                cell(lasso(&reg, &c, true), e, mem(&ds))
                    .results
                    .swap_remove(0)
                    .x
            })
        };
        let (scalar, auto) = (run(Mode::Scalar), run(Mode::Auto));
        assert_eq!(scalar, auto, "SACO_SIMD changed engine iterates");
    }
    simd::set_mode(ambient);
}

/// Strict: both runs charge through the same backend code path, so the
/// counters are equal by construction, not approximately.
fn assert_reports_match(a: &CostReport, b: &CostReport, what: &str) {
    let (x, y) = (&a.critical, &b.critical);
    assert_eq!(x.messages, y.messages, "{what}: message counters diverge");
    assert_eq!(x.words, y.words, "{what}: word counters diverge");
    assert_eq!(x.flops, y.flops, "{what}: flop counters diverge");
    let rel = (a.running_time() - b.running_time()).abs() / b.running_time();
    assert!(
        rel < 1e-9,
        "{what}: simulated times diverge: {} vs {} (rel {rel})",
        a.running_time(),
        b.running_time()
    );
}

#[test]
fn rank_count_does_not_change_results() {
    let ds = PaperDataset::News20.generate(0.04, 3).dataset;
    let cfg = LassoConfig {
        mu: 1,
        s: 4,
        lambda: 0.2,
        seed: 47,
        max_iters: 96,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let reg = Lasso::new(cfg.lambda);
    let mut finals = Vec::new();
    for p in [1usize, 2, 3, 8] {
        let out = cell(lasso(&reg, &cfg, true), net(p), mem(&ds));
        finals.push(out.result().final_value());
    }
    for f in &finals[1..] {
        let rel = (f - finals[0]).abs() / finals[0];
        assert!(rel < 1e-10, "objective varies with P: {finals:?}");
    }
}

// ---------------------------------------------------------------------------
// SA ≡ classical along the whole trace: the paper's exact-arithmetic claim
// (Table III), on the registry's dataset structures.
// ---------------------------------------------------------------------------

fn assert_traces_match(a: &SolveResult, b: &SolveResult, tol: f64, what: &str) {
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace lengths differ");
    let scale = a.trace.initial_value().abs();
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        let denom = p.value.abs().max(1e-9 * scale);
        let rel = (p.value - q.value).abs() / denom;
        assert!(rel < tol, "{what} iter {}: rel err {rel}", p.iter);
    }
}

#[test]
fn lasso_sa_equivalence_on_registry_structures() {
    // one dense, one uniform-sparse, one power-law dataset
    for ds in [
        PaperDataset::Leu,
        PaperDataset::Covtype,
        PaperDataset::News20,
    ] {
        let g = ds.generate(0.05, 7);
        let lambda = 0.1;
        let reg = Lasso::new(lambda);
        for (mu, s) in [(1usize, 64usize), (4, 16)] {
            let c = LassoConfig {
                mu,
                s,
                lambda,
                seed: 2024,
                max_iters: 320,
                trace_every: 40,
                rel_tol: None,
                ..Default::default()
            };
            let classic = acc_bcd(&g.dataset, &reg, &c);
            let sa = sa_accbcd(&g.dataset, &reg, &c);
            assert_traces_match(&classic, &sa, 1e-9, g.info.name);
            let classic = bcd(&g.dataset, &reg, &c);
            let sa = sa_bcd(&g.dataset, &reg, &c);
            assert_traces_match(&classic, &sa, 1e-9, g.info.name);
        }
    }
}

#[test]
fn sa_equivalence_holds_for_elastic_net_and_group_lasso() {
    let g = PaperDataset::Epsilon.generate(0.05, 9);
    fn check<R: Regularizer>(ds: &Dataset, reg: &R, mu: usize) {
        let c = LassoConfig {
            mu,
            s: 24,
            lambda: 0.3,
            seed: 31,
            max_iters: 240,
            trace_every: 40,
            rel_tol: None,
            ..Default::default()
        };
        let classic = acc_bcd(ds, reg, &c);
        let sa = sa_accbcd(ds, reg, &c);
        assert_eq!(classic.trace.len(), sa.trace.len());
        for (p, q) in classic.trace.points().iter().zip(sa.trace.points()) {
            let rel = (p.value - q.value).abs() / p.value.abs().max(1e-300);
            assert!(rel < 1e-9, "iter {}: rel err {rel}", p.iter);
        }
    }
    check(&g.dataset, &ElasticNet::new(0.4), 4);
    let n = g.dataset.num_features();
    check(&g.dataset, &GroupLasso::uniform(0.3, n, 4), 4);
}

#[test]
fn svm_sa_equivalence_on_registry_structures() {
    for ds in [
        PaperDataset::W1a,
        PaperDataset::Duke,
        PaperDataset::Rcv1Binary,
    ] {
        let g = ds.generate_for_task(Task::Classification, 0.1, 11);
        for loss in [SvmLoss::L1, SvmLoss::L2] {
            let c = svm_cfg(loss, 48, 77, 960, 120);
            let classic = svm(&g.dataset, &c);
            let sa = sa_svm(&g.dataset, &c);
            assert_eq!(classic.trace.len(), sa.trace.len());
            let init = classic.trace.initial_value();
            for (p, q) in classic.trace.points().iter().zip(sa.trace.points()) {
                // Floor the denominator: once the gap has decayed to
                // ~machine-ε of the problem scale, agreement in absolute
                // terms (relative to the initial gap) is what stability
                // means.
                let denom = p.value.abs().max(1e-6 * init);
                let rel = (p.value - q.value).abs() / denom;
                assert!(
                    rel < 1e-8,
                    "{} {loss:?} iter {}: rel {rel}",
                    g.info.name,
                    p.iter
                );
            }
        }
    }
}

#[test]
fn table_iii_machine_precision_at_s_1000() {
    // The headline Table III numbers: final relative objective error at
    // s = 1000 sits at machine precision.
    let g = PaperDataset::Leu.generate(1.0, 13);
    let lambda = saco_lambda(&g.dataset);
    let c = LassoConfig {
        mu: 1,
        s: 1000,
        lambda,
        seed: 1000,
        max_iters: 2000,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    };
    let reg = Lasso::new(lambda);
    let classic = acc_bcd(&g.dataset, &reg, &c);
    let sa = sa_accbcd(&g.dataset, &reg, &c);
    let rel = sa.relative_error_vs(&classic);
    assert!(rel < 5e-13, "relative objective error {rel} at s=1000");
}

/// λ at 10% of ‖Aᵀb‖∞ (enough to matter, not enough to zero everything).
fn saco_lambda(ds: &Dataset) -> f64 {
    let atb = ds.a.spmv_t(&ds.b);
    0.1 * sparsela::vecops::inf_norm(&atb)
}

#[test]
fn sa_solvers_with_s_1_are_bitwise_classical_shapes() {
    // s = 1 must agree with the classical solver at every traced point to
    // extremely tight tolerance (identical computation graph modulo benign
    // reassociation in the Gram kernel).
    let g = PaperDataset::Rcv1Binary.generate(0.05, 17);
    let c = svm_cfg(SvmLoss::L1, 1, 5, 400, 50);
    let a = svm(&g.dataset, &c);
    let b = sa_svm(&g.dataset, &c);
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        assert!((p.value - q.value).abs() <= 1e-12 * p.value.abs().max(1.0));
    }
}

// ---------------------------------------------------------------------------
// Refactor guard: the family-spec driver must not move a single charge.
// ---------------------------------------------------------------------------

/// Byte-compare a deterministic document — a `saco-telemetry/v1` report
/// captured before the `exec/driver.rs` refactor, or the cell file —
/// against its committed golden in `tests/goldens/`. Any drift is a
/// behavior change: the failure lists every line that moved. Regenerate
/// (only when a change is *intended*, naming what moved) with
/// `SACO_BLESS=1`.
fn golden_check(name: &str, doc: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name);
    if std::env::var_os("SACO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, doc).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {name} unreadable ({e}); bless with SACO_BLESS=1"));
    if doc != want {
        let moved: Vec<String> = (want.lines().zip(doc.lines()))
            .filter(|(w, d)| w != d)
            .map(|(w, d)| format!("  golden: {w}\n  now:    {d}"))
            .collect();
        let (a, b) = (want.lines().count(), doc.lines().count());
        panic!(
            "{name} drifted from its committed golden ({} lines moved, {a} → {b} lines):\n{}",
            moved.len(),
            moved.join("\n")
        );
    }
}

#[test]
fn registry_reports_match_pre_refactor_goldens() {
    use saco_telemetry::run_report_json;

    let ds = lasso_ds(77);
    let reg = Lasso::new(0.05);
    // Accelerated run: exercises the double-buffered block entry, the
    // overlap closure, and the piggybacked trace scalar.
    let t = cell(lasso(&reg, &lasso_cfg(2, 8), true), sim(8), mem(&ds)).telemetry;
    golden_check("sim_lasso_report.json", &run_report_json(&t));
    // Plain BCD on a balanced partition: the single-sequence update
    // charges.
    let balanced4 = Engine::sim(4, CostModel::cray_xc30(), true);
    let t = cell(lasso(&reg, &lasso_cfg(3, 4), false), balanced4, mem(&ds)).telemetry;
    golden_check("sim_bcd_report.json", &run_report_json(&t));
    let sds = svm_ds(78);
    let sc = svm_cfg(SvmLoss::L2, 8, 5, 96, 24);
    let t = cell(Method::svm(&sc), sim(8), mem(&sds)).telemetry;
    golden_check("sim_svm_report.json", &run_report_json(&t));
}

// ---------------------------------------------------------------------------
// The kernel column: K-DCD/K-BDCD is the third family through the same
// driver, so its rows walk the same product — with one twist. The
// exchanged payload is *raw dot-product rows* (kernel transforms are
// nonlinear and cannot be summed), so at p > 1 the allreduce tree
// re-associates the feature sums and the transformed kernel entries carry
// last-ulp noise into the iterate: net ≡ seq is bitwise at p = 1 and 1e-9
// at p > 1, exactly like the linear families. Everything structural stays
// bitwise: seq ≡ sim, all ranks replicated (iterates *and* cache counters
// — the skip-the-collective decision rides on them), streamed ≡
// in-memory, and the worker-thread count.
// ---------------------------------------------------------------------------

fn kdcd_ds(seed: u64) -> Dataset {
    let a = dense_gaussian(48, 16, seed);
    binary_classification(a, 0.05, seed).dataset
}

/// The kernel axis of the matrix: one PSD kernel per dual task, so both
/// recurrences (K-DCD's projected step, K-BDCD's exact ridge step) and
/// both kernel transforms are under every contract below.
fn kdcd_kernels() -> [(KernelFn, KdcdTask, &'static str); 2] {
    [
        (
            KernelFn::Rbf { gamma: 0.5 },
            KdcdTask::Svm(SvmLoss::L1),
            "rbf/ksvm",
        ),
        (
            KernelFn::parse("poly:d=2,gamma=0.5,coef0=1").expect("kernel spec"),
            KdcdTask::Ridge,
            "poly/kridge",
        ),
    ]
}

fn kdcd_cfg(kernel: KernelFn, task: KdcdTask) -> KdcdConfig {
    KdcdConfig {
        task,
        kernel,
        lambda: 0.5,
        s: 8,
        seed: 61,
        max_iters: 128,
        trace_every: 32,
        cache_budget_bytes: 1 << 20,
    }
}

// ---------------------------------------------------------------------------
// The warm-start column: the λ-path and CV sweeps ride the same driver as
// the single solves, so they owe the matrix too — path on the virtual
// cluster is bitwise the sequential path, and a CV sweep must not care
// how many pooled worker threads run the kernels.
// ---------------------------------------------------------------------------

/// Path on sim ≡ seq **bitwise**: every segment's solution vector,
/// objective, and support size. The path driver warm-starts segment k+1
/// from segment k, so a single bit of drift in an early segment would
/// cascade — equality of the *last* point is the strong form of the whole
/// chain agreeing.
#[test]
fn sim_path_matches_seq_path_bitwise() {
    let ds = lasso_ds(5);
    let c = lasso_cfg(4, 8);
    let seq_path = saco::path::lasso_path(&ds, &c, 8, 0.01, Lasso::new);
    let (sim_path, rep) = saco::sim::sim_lasso_path(
        &ds,
        &c,
        8,
        0.01,
        Lasso::new,
        4,
        CostModel::cray_xc30(),
        false,
    );
    assert_eq!(seq_path.points.len(), sim_path.points.len());
    for (k, (a, b)) in seq_path.points.iter().zip(&sim_path.points).enumerate() {
        assert_eq!(
            a.lambda.to_bits(),
            b.lambda.to_bits(),
            "segment {k}: λ grid"
        );
        assert_eq!(a.x, b.x, "segment {k}: seq vs sim path solution");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "segment {k}: objective"
        );
        assert_eq!(a.nonzeros, b.nonzeros, "segment {k}: support size");
    }
    // The virtual cluster also charged the sweep (one allreduce chain per
    // segment), not just computed it.
    assert!(rep.critical.messages > 0 && rep.running_time() > 0.0);
}

/// A CV sweep is bitwise invariant under the pooled worker-thread count:
/// fold means, standard errors, the selected λs, and the diverged-fold
/// count all come out identical at 1 and 4 threads (the lane-reduction
/// contract of the SIMD kernels extends through the fold solves).
#[test]
fn cv_is_deterministic_across_worker_threads() {
    let ds = lasso_ds(6);
    let c = lasso_cfg(2, 8);
    let run = |threads: usize| {
        saco_par::set_threads(threads);
        saco::crossval::cross_validate_lasso(&ds, &c, 4, 6, 0.01, Lasso::new)
    };
    let one = run(1);
    let four = run(4);
    saco_par::set_threads(1);
    assert_eq!(one.points.len(), four.points.len());
    for (k, (a, b)) in one.points.iter().zip(&four.points).enumerate() {
        assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "λ {k}");
        assert_eq!(
            a.mean_mse.to_bits(),
            b.mean_mse.to_bits(),
            "λ {k}: fold mean moved with the thread count"
        );
        assert_eq!(a.std_error.to_bits(), b.std_error.to_bits(), "λ {k}");
    }
    assert_eq!(one.nan_folds, four.nan_folds);
    assert_eq!(one.best_lambda().to_bits(), four.best_lambda().to_bits());
    assert_eq!(one.lambda_1se().to_bits(), four.lambda_1se().to_bits());
}

/// Convergence on the url-shaped stand-in (power-law sparse, the paper's
/// widest dataset) for both dual tasks: the traced dual objective must
/// decrease monotonically and end clearly below zero. This is the
/// kernel-family analogue of the registry-structure equivalence suite —
/// near-empty power-law rows are exactly where a kernel cache earns its
/// keep, so the cache must also report real traffic.
#[test]
fn kdcd_converges_on_url_shape_subsample() {
    let g = PaperDataset::Url.generate_for_task(Task::Classification, 0.02, 19);
    let ds = &g.dataset;
    for (kernel, task, name) in kdcd_kernels() {
        let mut c = kdcd_cfg(kernel, task);
        c.max_iters = 256;
        c.trace_every = 64;
        let (res, stats) = kdcd(ds, &c);
        assert!(
            res.final_value() < -1e-4,
            "{name} on url: final {}",
            res.final_value()
        );
        let vals: Vec<f64> = res.trace.points().iter().map(|p| p.value).collect();
        assert!(
            vals.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "{name} on url: dual objective must decrease: {vals:?}"
        );
        assert!(stats.cache.misses > 0 && stats.tile_rows > 0, "{name}");
    }
}

/// A fresh per-process scratch directory for one shard set.
fn shard_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("saco_matrix_shards_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

// ---------------------------------------------------------------------------
// The product, stated once as data: every row (family × regularizer /
// loss / kernel × s × pool width) × engine × source cell at p ∈ {1, 2, 4}
// either matches the seq/in-memory reference under its engine's relation,
// or returns the documented `RunError`. No cell may panic.
// ---------------------------------------------------------------------------

/// How a cell must relate to the seq/in-memory reference iterate.
#[derive(Clone, Copy, Debug)]
enum Relation {
    Bitwise,
    /// `|a − b| ≤ tol·max(1, |a|)` per coordinate (the allreduce tree
    /// re-associates sums).
    Close(f64),
}

/// One row per engine: name, constructor, and the relation its cells hold
/// to the reference at p = 1 and at p > 1.
type EngineRow = (&'static str, fn(usize) -> Engine, Relation, Relation);

const ENGINE_TABLE: [EngineRow; 3] = [
    ("seq", |_| Engine::Seq, Relation::Bitwise, Relation::Bitwise),
    ("sim", sim, Relation::Bitwise, Relation::Bitwise),
    ("net", net, Relation::Bitwise, Relation::Close(1e-9)),
];

/// A cell's solution, reassembled: the global iterate (the linear SVM
/// partitions `x` across ranks, everything else replicates it and every
/// replica must agree bitwise) and the traced objective's bits, which
/// every rank must hold identically.
fn solution(out: &RunOutcome, partitioned: bool, what: &str) -> (Vec<f64>, Vec<u64>) {
    let trace_bits = |r: &SolveResult| -> Vec<u64> {
        r.trace.points().iter().map(|p| p.value.to_bits()).collect()
    };
    let (first, rest) = (&out.results[0], &out.results[1..]);
    for r in rest {
        assert_eq!(
            trace_bits(r),
            trace_bits(first),
            "{what}: trace not replicated"
        );
        if !partitioned {
            assert_eq!(r.x, first.x, "{what}: ranks disagree");
        }
    }
    let x = if partitioned {
        out.results.iter().flat_map(|r| r.x.clone()).collect()
    } else {
        first.x.clone()
    };
    (x, trace_bits(first))
}

fn assert_related(x: &[f64], reference: &[f64], rel: Relation, what: &str) {
    assert_eq!(x.len(), reference.len(), "{what}: length");
    match rel {
        Relation::Bitwise => assert_eq!(x, reference, "{what}: must be bitwise the reference"),
        Relation::Close(tol) => {
            for (a, b) in x.iter().zip(reference) {
                assert!(
                    (a - b).abs() <= tol * a.abs().max(1.0),
                    "{what}: {a} vs {b}"
                );
            }
        }
    }
}

/// The regularizer axis of the Lasso rows.
#[derive(Clone, Copy, Debug)]
enum Reg {
    Lasso,
    ElasticNet,
    GroupLasso,
}

/// Bind `$r` to the row's regularizer over `$n` features and evaluate
/// `$body`: `Regularizer` is not dyn-compatible (`Self: Sized`), so each
/// concrete type gets its own arm.
macro_rules! with_reg {
    ($reg:expr, $n:expr, |$r:ident| $body:expr) => {
        match $reg {
            Reg::Lasso => {
                let $r = &Lasso::new(0.05);
                $body
            }
            Reg::ElasticNet => {
                let $r = &ElasticNet::new(0.4);
                $body
            }
            Reg::GroupLasso => {
                let $r = &GroupLasso::uniform(0.05, $n, 4);
                $body
            }
        }
    };
}

/// The method axis of the walk: a family with the knobs its rows turn.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// `s = 1` is the classical BCD / accBCD.
    Lasso {
        reg: Reg,
        accel: bool,
        s: usize,
    },
    Svm {
        loss: SvmLoss,
        s: usize,
    },
    /// `threads` is the kernel pool width every cell of the row runs at.
    Kdcd {
        kernel: KernelFn,
        task: KdcdTask,
        threads: usize,
    },
}

fn walk_svm_cfg(loss: SvmLoss, s: usize) -> SvmConfig {
    svm_cfg(loss, s, 71, 96, 24)
}

/// The reference: the family solved through the `seq::*` shim a user
/// calls, with its kernel-cache counters for the K-DCD rows.
fn shim(family: Family, ds: &Dataset) -> (SolveResult, Option<KdcdStats>) {
    match family {
        Family::Lasso { reg, accel, s } => {
            let c = lasso_cfg(4, s);
            let res = with_reg!(reg, ds.num_features(), |r| match (accel, s) {
                (true, 1) => acc_bcd(ds, r, &c),
                (true, _) => sa_accbcd(ds, r, &c),
                (false, 1) => bcd(ds, r, &c),
                (false, _) => sa_bcd(ds, r, &c),
            });
            (res, None)
        }
        Family::Svm { loss, s } => {
            let c = walk_svm_cfg(loss, s);
            (if s == 1 { svm(ds, &c) } else { sa_svm(ds, &c) }, None)
        }
        Family::Kdcd { kernel, task, .. } => {
            let (res, stats) = kdcd(ds, &kdcd_cfg(kernel, task));
            (res, Some(stats))
        }
    }
}

/// One cell through `run`, from memory or from the shard directory `dir`.
fn try_cell<'a>(
    family: Family,
    ds: &'a Dataset,
    engine: Engine,
    dir: Option<&'a Path>,
) -> Result<RunOutcome, RunError> {
    let source = dir.map_or(mem(ds), shards);
    match family {
        Family::Lasso { reg, accel, s } => {
            let c = lasso_cfg(4, s);
            with_reg!(reg, ds.num_features(), |r| run(&RunSpec::new(
                lasso(r, &c, accel),
                engine,
                source
            )))
        }
        Family::Svm { loss, s } => {
            let c = walk_svm_cfg(loss, s);
            run(&RunSpec::new(Method::svm(&c), engine, source))
        }
        Family::Kdcd { kernel, task, .. } => {
            let c = kdcd_cfg(kernel, task);
            run(&RunSpec::new(Method::kdcd(&c), engine, source))
        }
    }
}

/// The cell's wire counts as `(allreduces, payload words)` in program
/// order — what one rank joined and handed in. The modeled engines count
/// them on the ledger; the socket mesh's are inverted from the frames and
/// bytes its ranks sent during the solve by the tree identity: an
/// allreduce of `w` words crosses `2(P−1)` tree edges, each one frame of
/// `HEADER_LEN + 8w` bytes. The mesh's set-up barrier precedes the
/// `net.solve.*` window and is the one extra collective each rank counts
/// in `net.collectives`. A lone rank sends nothing and counts none.
fn wire_counts(engine: Engine, t: &Registry) -> (u64, u64) {
    let Engine::Net { p, .. } = engine else {
        return (
            t.counter("collectives.allreduce"),
            t.counter("comm.words_packed"),
        );
    };
    let (frames, bytes) = (
        t.counter("net.solve.frames_tx"),
        t.counter("net.solve.bytes_tx"),
    );
    let edges = 2 * (p as u64 - 1);
    if edges == 0 {
        assert_eq!((frames, bytes), (0, 0), "a lone rank sent frames");
        return (0, 0);
    }
    let payload = bytes - frames * netcomm::frame::HEADER_LEN as u64;
    assert_eq!(payload % 8, 0, "payload bytes are whole words");
    assert_eq!(frames % edges, 0, "{frames} frames over {edges} tree edges");
    assert_eq!(
        payload / 8 % edges,
        0,
        "{payload} payload bytes over {edges} edges"
    );
    let (coll, words) = (frames / edges, payload / 8 / edges);
    let setup_barrier = 1;
    assert_eq!(
        t.counter("net.collectives"),
        p as u64 * (coll + setup_barrier)
    );
    (coll, words)
}

/// The pinned part of a line of `tests/goldens/cells.txt`: the objective's
/// bits and iterations, and on the rank engines its [`wire_counts`].
fn cell_summary(engine: Engine, out: &RunOutcome) -> String {
    let r = out.result();
    let bits = r.final_value().to_bits();
    let mut line = format!("obj={bits:016x} iters={}", r.iters);
    if engine.ranks().is_some() {
        let (coll, words) = wire_counts(engine, &out.telemetry);
        line += &format!(" coll={coll} words={words}");
    }
    line
}

/// The kernel family's replicated counters: every rank of every cell
/// admits, hits and evicts exactly as the reference did, and skips the
/// same all-hit collectives.
fn assert_cache_replicated(out: &RunOutcome, reference: &KdcdStats, what: &str) {
    for (rank, st) in out.kdcd.iter().enumerate() {
        assert_eq!(
            st.cache, reference.cache,
            "{what} rank {rank}: cache stream"
        );
        assert_eq!(
            st.exchange_skipped, out.kdcd[0].exchange_skipped,
            "{what} rank {rank}: skip decisions must replicate"
        );
    }
}

/// One cell of a row: an engine at `p`, its in-memory run, and its run
/// from each of the row's shard directories.
struct Cell {
    engine_name: &'static str,
    engine: Engine,
    p: usize,
    /// The relation the cell must hold to the row's reference.
    rel: Relation,
    in_memory: Result<RunOutcome, RunError>,
    /// `(dir, whether the method streams it, outcome)`: the directory
    /// the method cannot stream must be `RunError::WrongAxis`.
    from_shards: Vec<(PathBuf, bool, Result<RunOutcome, RunError>)>,
}

/// One row of the walk: its name in `tests/goldens/cells.txt`, its
/// family and data, the `seq::*` shim's solve it is held to (with the
/// shim's kernel-cache counters on the K-DCD rows), and every cell.
struct Row {
    name: String,
    family: Family,
    data: Dataset,
    reference: SolveResult,
    ref_stats: Option<KdcdStats>,
    cells: Vec<Cell>,
}

impl Row {
    /// The linear SVM partitions `x` across ranks; the rest replicate it.
    fn partitioned(&self) -> bool {
        matches!(self.family, Family::Svm { .. })
    }

    fn what(&self, cell: &Cell) -> String {
        format!("{} {} p={}", self.name, cell.engine_name, cell.p)
    }

    /// The cell's in-memory run, which every cell of every row has.
    fn ran<'a>(&self, cell: &'a Cell) -> &'a RunOutcome {
        let what = self.what(cell);
        cell.in_memory
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: {e:?}"))
    }

    /// The cell's reassembled solution: split across ranks only where the
    /// run has more than one.
    fn solved(&self, out: &RunOutcome, what: &str) -> (Vec<f64>, Vec<u64>) {
        solution(out, self.partitioned() && out.results.len() > 1, what)
    }

    /// The cell on `engine_name` at `p`.
    fn cell(&self, engine_name: &str, p: usize) -> &Cell {
        let found = self
            .cells
            .iter()
            .find(|c| c.engine_name == engine_name && c.p == p);
        found.unwrap_or_else(|| panic!("{}: no {engine_name} p={p} cell", self.name))
    }
}

/// Run one row over every engine × source × p. Nothing is asserted here:
/// every outcome is kept for the contracts below to judge.
fn walk_row(name: String, family: Family, ds: &Dataset, dirs: [(&Path, bool); 2]) -> Row {
    let ambient = saco_par::threads();
    if let Family::Kdcd { threads, .. } = family {
        saco_par::set_threads(threads);
    }
    let (reference, ref_stats) = shim(family, ds);
    let mut cells = Vec::new();
    for (engine_name, engine, at_one, beyond) in ENGINE_TABLE {
        for p in [1usize, 2, 4] {
            let engine = engine(p);
            if engine.ranks().is_none() && p > 1 {
                continue; // `seq` has no ranks: p = 1 is its one cell
            }
            let in_memory = try_cell(family, ds, engine, None);
            let from_shards = dirs
                .iter()
                .map(|&(dir, streams)| {
                    let out = try_cell(family, ds, engine, Some(dir));
                    (dir.to_path_buf(), streams, out)
                })
                .collect();
            cells.push(Cell {
                engine_name,
                engine,
                p,
                rel: if p == 1 { at_one } else { beyond },
                in_memory,
                from_shards,
            });
        }
    }
    saco_par::set_threads(ambient);
    Row {
        name,
        family,
        data: ds.clone(),
        reference,
        ref_stats,
        cells,
    }
}

/// Every row of the product, in `tests/goldens/cells.txt` order.
fn walk_product() -> Vec<Row> {
    let lasso_data = lasso_ds(11);
    let dual_data = kdcd_ds(12);
    let csc_dir = shard_dir("product_csc");
    let csc = lasso_data.a.to_csc();
    let bounds = shard_plan(&slice_nnz(&csc), 6);
    write_csc(&csc_dir, &csc, &bounds, Some(&lasso_data.b)).expect("write csc shards");
    let csr_dir = shard_dir("product_csr");
    let bounds = shard_plan(&slice_nnz(&dual_data.a), 5);
    write_csr(&csr_dir, &dual_data.a, &bounds, Some(&dual_data.b)).expect("write csr shards");
    let dense_data = dense_lasso_ds(13);
    let dense_dir = shard_dir("product_dense_csc");
    let dense_csc = dense_data.a.to_csc();
    let bounds = shard_plan(&slice_nnz(&dense_csc), 4);
    write_csc(&dense_dir, &dense_csc, &bounds, Some(&dense_data.b)).expect("write dense shards");
    let for_lasso = [(csc_dir.as_path(), true), (csr_dir.as_path(), false)];
    let for_duals = [(csc_dir.as_path(), false), (csr_dir.as_path(), true)];
    let for_dense = [(dense_dir.as_path(), true), (csr_dir.as_path(), false)];

    let mut rows = Vec::new();
    for (reg, prefix) in [
        (Reg::Lasso, ""),
        (Reg::ElasticNet, "enet/"),
        (Reg::GroupLasso, "glasso/"),
    ] {
        for (variant, accel, s) in [
            ("bcd", false, 8),
            ("accbcd", true, 8),
            ("bcd-s1", false, 1),
            ("accbcd-s1", true, 1),
        ] {
            let family = Family::Lasso { reg, accel, s };
            let name = format!("{prefix}{variant}");
            rows.push(walk_row(name, family, &lasso_data, for_lasso));
        }
    }
    // Full slices through every cell. The dual families below already walk
    // them: `kdcd_ds` is `dense_gaussian(48, 16)`, every row full.
    let dense = Family::Lasso {
        reg: Reg::Lasso,
        accel: true,
        s: 8,
    };
    rows.push(walk_row(
        "accbcd-dense".into(),
        dense,
        &dense_data,
        for_dense,
    ));
    for (loss, name) in [(SvmLoss::L1, "svm-l1"), (SvmLoss::L2, "svm-l2")] {
        for (s, suffix) in [(8, ""), (1, "-s1")] {
            let family = Family::Svm { loss, s };
            rows.push(walk_row(
                format!("{name}{suffix}"),
                family,
                &dual_data,
                for_duals,
            ));
        }
    }
    for (kernel, task, name) in kdcd_kernels() {
        for (threads, suffix) in [(1, ""), (4, "-pool4")] {
            let family = Family::Kdcd {
                kernel,
                task,
                threads,
            };
            rows.push(walk_row(
                format!("{name}{suffix}"),
                family,
                &dual_data,
                for_duals,
            ));
        }
    }
    for dir in [csc_dir, csr_dir, dense_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    rows
}

/// The product is walked once per test binary and each test below judges
/// one contract on one family's rows, so a break names the contract and
/// the family it broke. A run's telemetry holds a `RefCell`, so the
/// shared rows sit behind a mutex; a failed assertion poisons it, and the
/// other contracts read on.
fn walked() -> MutexGuard<'static, Vec<Row>> {
    static WALK: OnceLock<Mutex<Vec<Row>>> = OnceLock::new();
    let walk = WALK.get_or_init(|| Mutex::new(walk_product()));
    walk.lock().unwrap_or_else(PoisonError::into_inner)
}

fn is_lasso(f: &Family) -> bool {
    matches!(f, Family::Lasso { .. })
}

fn is_svm(f: &Family) -> bool {
    matches!(f, Family::Svm { .. })
}

fn is_kdcd(f: &Family) -> bool {
    matches!(f, Family::Kdcd { .. })
}

/// The walked rows of one family; a contract over no row would pass
/// vacuously, so there must be some.
fn rows_of(rows: &[Row], family: fn(&Family) -> bool) -> Vec<&Row> {
    let picked: Vec<&Row> = rows.iter().filter(|r| family(&r.family)).collect();
    assert!(!picked.is_empty(), "the walk has no row of this family");
    picked
}

/// Every in-memory cell of the family's rows relates to the seq shim under
/// its engine's relation, with ranks replicated — iterates and traces,
/// and on the K-DCD rows every rank's cache stream and skip decisions.
fn assert_engine_relations(family: fn(&Family) -> bool) {
    let rows = walked();
    for row in rows_of(&rows, family) {
        for cell in &row.cells {
            let (what, out) = (row.what(cell), row.ran(cell));
            let (x, _) = row.solved(out, &what);
            assert_related(&x, &row.reference.x, cell.rel, &what);
            if let Some(st) = &row.ref_stats {
                assert_cache_replicated(out, st, &what);
            }
        }
    }
}

/// Sim prices what net executes, cell for cell: net(p)'s frames and bytes
/// invert to sim(p)'s allreduces and payload words at every p.
fn assert_sim_prices_net(family: fn(&Family) -> bool) {
    let rows = walked();
    for row in rows_of(&rows, family) {
        for p in [1, 2, 4] {
            let (sim_cell, net_cell) = (row.cell("sim", p), row.cell("net", p));
            let what = row.what(net_cell);
            let sim_wire = wire_counts(sim_cell.engine, &row.ran(sim_cell).telemetry);
            let net_wire = wire_counts(net_cell.engine, &row.ran(net_cell).telemetry);
            assert_eq!(net_wire, sim_wire, "{what}: net wire vs sim counts");
        }
    }
}

/// Every cell that can stream its shard directory is bitwise its
/// in-memory twin — iterates, traces and wire — on every engine, whatever
/// the engine's own relation to seq; on sim the two charge the same
/// counts. Returns how many shards seq's lookahead loaded ahead of their
/// first `prepare`: seq prefetches the next block at block entry, sim
/// never does (its overlap window prepares the next block in line), so
/// each shard sim(1) loads synchronously and seq does not was claimed by
/// the lookahead.
fn assert_streamed_bitwise(family: fn(&Family) -> bool) -> u64 {
    let rows = walked();
    let mut ahead = 0;
    for row in rows_of(&rows, family) {
        for cell in &row.cells {
            let in_memory = row.ran(cell);
            let solved = row.solved(in_memory, &row.what(cell));
            let summary = cell_summary(cell.engine, in_memory);
            for (dir, _, out) in cell.from_shards.iter().filter(|(_, streams, _)| *streams) {
                let what = format!("{} shard:{}", row.what(cell), dir.display());
                let out = out.as_ref().unwrap_or_else(|e| panic!("{what}: {e:?}"));
                assert_eq!(row.solved(out, &what), solved, "{what}");
                assert_eq!(cell_summary(cell.engine, out), summary, "{what}");
                assert_eq!(out.io.len(), out.results.len(), "{what}: io views");
                if let Some(st) = &row.ref_stats {
                    assert_cache_replicated(out, st, &what);
                }
                if let (Some(st), Some(im)) = (&out.report, &in_memory.report) {
                    assert_reports_match(st, im, &format!("{what}: sim charges"));
                }
            }
        }
        let (seq, sim1) = (row.cell("seq", 1), row.cell("sim", 1));
        let streamed = |c: &Cell| -> u64 {
            let (_, _, out) = c
                .from_shards
                .iter()
                .find(|(_, s, _)| *s)
                .expect("a streamed dir");
            out.as_ref().map_or(0, |o| o.io[0].prefetch_misses)
        };
        let (seq_misses, sim_misses) = (streamed(seq), streamed(sim1));
        assert!(
            seq_misses <= sim_misses,
            "{}: seq loaded more in line than sim",
            row.name
        );
        ahead += sim_misses - seq_misses;
    }
    ahead
}

/// {BCD, accBCD} × s ∈ {1, 8} × {Lasso, ElasticNet, GroupLasso}, plus
/// accBCD on a dense matrix, on seq, sim and net at p ∈ {1, 2, 4}.
#[test]
fn lasso_engine_matrix() {
    assert_engine_relations(is_lasso);
}

/// The reported final objective is the objective of the returned `x`:
/// ½‖Ax − b‖² + g(x) recomputed from `x` agrees with it to a few ε
/// relative on every in-memory Lasso cell (the worst, `bcd net p=2`, is
/// 5.4 ε). The accelerated rows report the implicit objective of their
/// recurrences and never read `x`, and `cells.txt` pins only the
/// reported bits.
#[test]
fn reported_lasso_objective_is_the_objective_of_x() {
    let rows = walked();
    for row in rows_of(&rows, is_lasso) {
        let Family::Lasso { reg, .. } = row.family else {
            unreachable!("a Lasso row")
        };
        let (a, b) = (&row.data.a, &row.data.b);
        for cell in &row.cells {
            let what = row.what(cell);
            let r = &row.ran(cell).results[0];
            let fit: f64 = a
                .spmv(&r.x)
                .iter()
                .zip(b)
                .map(|(p, y)| (p - y) * (p - y))
                .sum();
            let f = 0.5 * fit + with_reg!(reg, r.x.len(), |g| g.value(&r.x));
            let rel = (f - r.final_value()).abs() / f.abs();
            assert!(
                rel <= 8.0 * f64::EPSILON,
                "{what}: reported {:e}, from x {f:e} (relative {rel:.2e})",
                r.final_value()
            );
        }
    }
}

/// {L1, L2} × s ∈ {1, 8}: the gap trace replicates across ranks and the
/// concatenated rank slices are the reference `x`.
#[test]
fn svm_engine_matrix() {
    assert_engine_relations(is_svm);
}

/// {rbf × K-SVM, poly × K-BDCD ridge} × kernel pool width {1, 4}; the
/// width must not move a bit.
#[test]
fn kdcd_engine_matrix() {
    assert_engine_relations(is_kdcd);
    let rows = walked();
    let kdcd_rows = rows_of(&rows, is_kdcd);
    let mut widths = 0;
    for narrow in &kdcd_rows {
        let wide_name = format!("{}-pool4", narrow.name);
        if let Some(wide) = kdcd_rows.iter().find(|r| r.name == wide_name) {
            assert_eq!(
                wide.reference.x, narrow.reference.x,
                "{}: worker-thread count changed the bits",
                narrow.name
            );
            widths += 1;
        }
    }
    assert_eq!(
        widths,
        kdcd_kernels().len(),
        "every kernel walks both widths"
    );
}

#[test]
fn sim_counts_match_net_wire_lasso() {
    assert_sim_prices_net(is_lasso);
}

#[test]
fn sim_counts_match_net_wire_svm() {
    assert_sim_prices_net(is_svm);
}

/// The kernel family's wire, all-hit rounds included: once every sampled
/// row is cached a block skips its allreduce on every rank, on the
/// cluster and on the mesh alike.
#[test]
fn sim_counts_match_net_wire_kdcd() {
    assert_sim_prices_net(is_kdcd);
    let rows = walked();
    for row in rows_of(&rows, is_kdcd) {
        let skipped = row.ran(row.cell("net", 4)).kdcd[0].exchange_skipped;
        assert!(skipped > 0, "{}: no all-hit round was exercised", row.name);
    }
}

/// Streamed Lasso-family cells are bitwise in memory, and seq's lookahead
/// prefetch engages on the shards.
#[test]
fn streamed_lasso_is_bitwise_in_memory_on_seq_and_sim() {
    let ahead = assert_streamed_bitwise(is_lasso);
    assert!(
        ahead > 0,
        "seq's lookahead never loaded a shard ahead of its block"
    );
}

/// Streamed SVM cells are bitwise in memory, and seq's lookahead
/// prefetch engages on the row shards.
#[test]
fn streamed_svm_is_bitwise_in_memory_on_seq_and_sim() {
    let ahead = assert_streamed_bitwise(is_svm);
    assert!(
        ahead > 0,
        "seq's lookahead never loaded a shard ahead of its block"
    );
}

/// Streamed K-DCD cells on every engine, cache streams included. The
/// lookahead is not asserted: this walk's K-DCD rows load no shard ahead.
#[test]
fn streamed_kdcd_is_bitwise_in_memory() {
    assert_streamed_bitwise(is_kdcd);
}

/// Every cell of every row, including the ones no other test reaches:
/// streamed SVM and streamed K-DCD on the socket mesh, streamed K-DCD on
/// the virtual cluster, and every wrong-axis cell as a typed error. Every
/// cell that runs is pinned in `tests/goldens/cells.txt`, so a change
/// that moved the bits consistently across engines still fails here,
/// naming the cells it moved.
#[test]
fn product_walk_covers_streamed_net_kdcd_cells() {
    let mut lines = Vec::new();
    for row in walked().iter() {
        for cell in &row.cells {
            let what = row.what(cell);
            let summary = cell_summary(cell.engine, row.ran(cell));
            lines.push(format!("{what} mem {summary}"));
            for (dir, streams, out) in &cell.from_shards {
                let what = format!("{what} shard:{}", dir.display());
                match out {
                    Ok(out) if *streams => {
                        let summary = cell_summary(cell.engine, out);
                        lines.push(format!("{} shard {summary}", row.what(cell)));
                    }
                    Err(RunError::WrongAxis { .. }) if !streams => {}
                    other => panic!("{what}: unexpected cell outcome {other:?}"),
                }
            }
        }
    }
    lines.push(String::new());
    golden_check("cells.txt", &lines.join("\n"));

    // The rest of the documented error surface.
    let lasso_data = lasso_ds(11);
    let accbcd = Family::Lasso {
        reg: Reg::Lasso,
        accel: true,
        s: 8,
    };
    for engine in [sim(0), net(0)] {
        let err = try_cell(accbcd, &lasso_data, engine, None);
        assert!(matches!(err, Err(RunError::ZeroRanks)), "{err:?}");
    }
    let (reg, zero_s) = (Lasso::new(0.05), lasso_cfg(4, 0));
    let zero_s = RunSpec::new(lasso(&reg, &zero_s, true), Engine::Seq, mem(&lasso_data));
    let err = run(&zero_s);
    assert!(matches!(err, Err(RunError::Config(_))), "{err:?}");
    let missing = Some(Path::new("/nonexistent/shards"));
    let err = try_cell(accbcd, &lasso_data, sim(4), missing);
    assert!(matches!(err, Err(RunError::Io { .. })), "{err:?}");
}
