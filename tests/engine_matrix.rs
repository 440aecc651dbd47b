//! The cross-engine equivalence matrix.
//!
//! Every solver family is one backend-generic recurrence
//! (`exec::{lasso_family, svm_family, kdcd_family}`) run on three
//! engines, so the contract is testable as a matrix rather than pairwise:
//!
//! * seq ≡ sim **bitwise** (the virtual cluster runs the identical global
//!   numerics and only attaches charges);
//! * net ≡ seq **bitwise at p = 1** (one rank holds the whole matrix and
//!   the reduction is the identity), and to 1e-9 at p > 1 (the reduction
//!   tree re-associates sums);
//! * all ranks of a net run agree **bitwise** (replicated recurrences);
//! * overlap on ≡ overlap off **bitwise** (the overlap window only runs
//!   work that depends on the replicated RNG stream and `A`);
//! * sim prices what net executes: its allreduces and payload words are
//!   the frames and bytes the socket mesh sends, by the tree identity;
//! * each SA method matches its classical counterpart along the whole
//!   trace (the paper's exact-arithmetic claim, Table III);
//! * every cell's objective bits are pinned in `tests/goldens/cells.txt`.

use datagen::{binary_classification, dense_gaussian, planted_regression, uniform_sparse};
use datagen::{col_partition, shard_plan, slice_nnz, PaperDataset, Task};
use mpisim::telemetry::Registry;
use mpisim::{CostModel, CostReport};
use saco::prox::{ElasticNet, GroupLasso, Lasso, Regularizer};
use saco::run::{run, Engine, Method, RunError, RunOutcome, RunSpec, Source};
use saco::seq::{acc_bcd, bcd, kdcd, sa_accbcd, sa_bcd, sa_svm, svm};
use saco::{KdcdConfig, KdcdStats, KdcdTask, LassoConfig, SolveResult, SvmConfig, SvmLoss};
use sparsela::io::Dataset;
use sparsela::shard::{write_csc, write_csr};
use sparsela::KernelFn;
use std::path::Path;

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
fn svm_cfg(loss: SvmLoss, s: usize, seed: u64, iters: usize, trace: usize, on: bool) -> SvmConfig {
    SvmConfig {
        loss,
        lambda: 1.0,
        s,
        seed,
        max_iters: iters,
        trace_every: trace,
        gap_tol: None,
        overlap: on,
    }
}

fn lasso_cfg(mu: usize, s: usize, overlap: bool) -> LassoConfig {
    LassoConfig {
        mu,
        s,
        lambda: 0.05,
        seed: 93,
        max_iters: 96,
        trace_every: 24,
        rel_tol: None,
        overlap,
        ..Default::default()
    }
}

fn run_seq_lasso<R: Regularizer>(
    ds: &Dataset,
    reg: &R,
    c: &LassoConfig,
    accel: bool,
) -> SolveResult {
    // Route through the public entry points so the matrix exercises the
    // shims users call, not the family directly.
    match (accel, c.s) {
        (true, 1) => acc_bcd(ds, reg, c),
        (true, _) => sa_accbcd(ds, reg, c),
        (false, 1) => bcd(ds, reg, c),
        (false, _) => sa_bcd(ds, reg, c),
    }
}

fn run_net_lasso<R: Regularizer>(
    ds: &Dataset,
    reg: &R,
    c: &LassoConfig,
    accel: bool,
    p: usize,
) -> Vec<SolveResult> {
    cell(lasso(reg, c, accel), net(p), mem(ds)).results
}

/// Overlap must not perturb numerics on the real wire either: with
/// overlap a leaf's partial is sent before the next block is formed and
/// combined after it, and the bits must not care.
#[test]
fn net_overlap_does_not_change_iterates() {
    let ds = lasso_ds(1);
    let reg = Lasso::new(0.05);
    let on = run_net_lasso(&ds, &reg, &lasso_cfg(4, 8, true), true, 4);
    let off = run_net_lasso(&ds, &reg, &lasso_cfg(4, 8, false), true, 4);
    assert_eq!(
        on[0].x, off[0].x,
        "overlap changed iterates on the socket mesh"
    );
    let c = |overlap| svm_cfg(SvmLoss::L2, 8, 72, 96, 24, overlap);
    let svm_ds = svm_ds(2);
    let on = cell(Method::svm(&c(true)), net(4), mem(&svm_ds)).results;
    let off = cell(Method::svm(&c(false)), net(4), mem(&svm_ds)).results;
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a.x, b.x, "overlap changed SVM iterates on the socket mesh");
    }
}

/// The full lasso-family matrix: {BCD, accBCD, SA-BCD, SA-accBCD} ×
/// {Lasso, ElasticNet, GroupLasso} × overlap {on, off} × p {1, 4}.
#[test]
fn lasso_engine_matrix() {
    let ds = lasso_ds(1);
    // `Regularizer` is not dyn-compatible (`Self: Sized` bound), so the
    // regularizer axis of the matrix is monomorphised per concrete type.
    lasso_matrix_for_reg(&ds, &Lasso::new(0.05), "lasso");
    lasso_matrix_for_reg(&ds, &ElasticNet::new(0.4), "enet");
    lasso_matrix_for_reg(&ds, &GroupLasso::uniform(0.05, 60, 4), "glasso");
}

fn lasso_matrix_for_reg<R: Regularizer>(ds: &Dataset, reg: &R, reg_name: &str) {
    for (variant, accel, s) in [
        ("bcd", false, 1usize),
        ("acc_bcd", true, 1),
        ("sa_bcd", false, 8),
        ("sa_accbcd", true, 8),
    ] {
        let what = format!("{reg_name}/{variant}");
        for overlap in [false, true] {
            let c = lasso_cfg(4, s, overlap);
            let seq_res = run_seq_lasso(ds, reg, &c, accel);
            // seq ≡ sim, bitwise.
            let sim_out = cell(lasso(reg, &c, accel), sim(4), mem(ds));
            assert_eq!(
                seq_res.x,
                sim_out.result().x,
                "{what} overlap={overlap}: seq vs sim"
            );
            for p in [1usize, 4] {
                let net = run_net_lasso(ds, reg, &c, accel, p);
                // Replicated recurrences: all ranks agree bitwise.
                for r in &net[1..] {
                    assert_eq!(r.x, net[0].x, "{what} p={p}: ranks disagree");
                }
                if p == 1 {
                    assert_eq!(net[0].x, seq_res.x, "{what}: net p=1 vs seq");
                } else {
                    for (a, b) in net[0].x.iter().zip(&seq_res.x) {
                        assert!(
                            (a - b).abs() < 1e-9,
                            "{what} p={p} overlap={overlap}: {a} vs {b}"
                        );
                    }
                }
            }
        }
        // Overlap must not perturb numerics in any engine.
        let d_on = run_net_lasso(ds, reg, &lasso_cfg(4, s, true), accel, 4);
        let d_off = run_net_lasso(ds, reg, &lasso_cfg(4, s, false), accel, 4);
        assert_eq!(d_on[0].x, d_off[0].x, "{what}: overlap changed iterates");
    }
}

/// The SVM matrix: {classical (s = 1), SA (s = 16)} × {L1, L2} × p {1, 4}.
#[test]
fn svm_engine_matrix() {
    let ds = svm_ds(2);
    for loss in [SvmLoss::L1, SvmLoss::L2] {
        for s in [1usize, 16] {
            for overlap in [false, true] {
                let c = svm_cfg(loss, s, 71, 192, 48, overlap);
                let what = format!("{loss:?} s={s} overlap={overlap}");
                let seq_res = if s == 1 {
                    svm(&ds, &c)
                } else {
                    sa_svm(&ds, &c)
                };
                let sim_out = cell(Method::svm(&c), sim(4), mem(&ds));
                assert_eq!(seq_res.x, sim_out.result().x, "{what}: seq vs sim");
                for p in [1usize, 4] {
                    let part = col_partition(&ds.a, p, false);
                    let net = cell(Method::svm(&c), net(p), mem(&ds)).results;
                    // The gap trace is replicated bitwise on every rank.
                    for r in &net[1..] {
                        assert_eq!(r.trace.len(), net[0].trace.len());
                        for (a, b) in r.trace.points().iter().zip(net[0].trace.points()) {
                            assert_eq!(a.value, b.value, "{what} p={p}: gap not replicated");
                        }
                    }
                    // Concatenated local slices reproduce the global x.
                    let mut x_global = Vec::new();
                    for (r, res) in net.iter().enumerate() {
                        assert_eq!(res.x.len(), part.range(r).len());
                        x_global.extend_from_slice(&res.x);
                    }
                    if p == 1 {
                        assert_eq!(x_global, seq_res.x, "{what}: net p=1 vs seq");
                    } else {
                        for (a, b) in x_global.iter().zip(&seq_res.x) {
                            assert!((a - b).abs() < 1e-9, "{what} p={p}: {a} vs {b}");
                        }
                    }
                }
            }
        }
    }
}

/// `SACO_SIMD` must be unobservable end to end: the same solve run under
/// the scalar and the auto (widest-ISA) microkernel builds yields
/// bitwise-identical iterates on every engine — seq, the virtual cluster
/// and the socket mesh (p = 2), in both overlap modes.
/// The lane schedule, not the ISA, is the numerics contract; CI runs the
/// whole matrix again under each `SACO_SIMD` value to pin the same
/// property through the env-var path.
#[test]
fn simd_mode_is_unobservable_across_engines() {
    use sparsela::simd::{self, Mode};
    let reg = Lasso::new(0.05);
    let ambient = simd::mode();
    // Sparse columns take the scatter lane block, dense ones the
    // full-slice block; each has its own AVX2 / AVX-512 builds.
    for ds in [lasso_ds(1), dense_lasso_ds(1)] {
        for overlap in [false, true] {
            let c = lasso_cfg(4, 8, overlap);
            let run = |mode: Mode| {
                simd::set_mode(mode);
                let seq = run_seq_lasso(&ds, &reg, &c, true);
                let mut sim = cell(lasso(&reg, &c, true), sim(2), mem(&ds));
                let net = run_net_lasso(&ds, &reg, &c, true, 2);
                let sim_x = sim.results.swap_remove(0).x;
                (seq.x, sim_x, net[0].x.clone())
            };
            let scalar = run(Mode::Scalar);
            let auto = run(Mode::Auto);
            assert_eq!(
                scalar, auto,
                "overlap={overlap}: SACO_SIMD changed engine iterates"
            );
        }
    }
    simd::set_mode(ambient);
}

fn report(out: RunOutcome) -> CostReport {
    out.report.expect("sim reports modeled costs")
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

/// Table I on the wire: the virtual cluster's program-order allreduce
/// and payload-word counts are what a socket mesh of the same size
/// actually sends. Each allreduce of `w` words crosses the `2(P−1)` edges
/// of the binomial tree (reduce up, broadcast down) as one frame of
/// `HEADER_LEN + 8w` bytes, so over a solve
/// `Σ frames = 2(P−1)·C` and `Σ bytes = 2(P−1)·(HEADER_LEN·C + 8·W)`.
/// The mesh's own set-up traffic is named and left out: the handshake
/// and the set-up barrier precede the `net.solve.*` window, and that
/// barrier is the one extra collective each rank counts in
/// `net.collectives`. A lone rank joins nothing on either engine.
fn assert_wire_matches_sim(sim: &RunOutcome, net: &RunOutcome, p: usize, what: &str) {
    let (s, n) = (&sim.telemetry, &net.telemetry);
    let (c, w) = (
        s.counter("collectives.allreduce"),
        s.counter("comm.words_packed"),
    );
    let (p, edges) = (p as u64, 2 * (p as u64 - 1));
    let header = netcomm::frame::HEADER_LEN as u64;
    assert_eq!(
        n.counter("net.solve.frames_tx"),
        edges * c,
        "{what}: frames"
    );
    let bytes = edges * (header * c + 8 * w);
    assert_eq!(n.counter("net.solve.bytes_tx"), bytes, "{what}: bytes");
    if p > 1 {
        let setup_barrier = 1;
        assert_eq!(
            n.counter("net.collectives"),
            p * (c + setup_barrier),
            "{what}"
        );
    }
}

/// Run a cell on the virtual cluster and on the socket mesh at
/// P ∈ {1, 2, 4} and hold the cluster's counts to the mesh's wire;
/// returns the mesh runs.
fn wire_check(run_on: impl Fn(Engine) -> RunOutcome, what: &str) -> Vec<RunOutcome> {
    let check = |p| {
        let (sim_out, net_out) = (run_on(sim(p)), run_on(net(p)));
        assert_wire_matches_sim(&sim_out, &net_out, p, &format!("{what} p={p}"));
        net_out
    };
    [1, 2, 4].map(check).into()
}

#[test]
fn sim_counts_match_net_wire_lasso() {
    let ds = lasso_ds(3);
    for accel in [false, true] {
        for overlap in [false, true] {
            let c = LassoConfig {
                mu: 2,
                s: 8,
                lambda: 0.2,
                seed: 48,
                max_iters: 64,
                trace_every: 16,
                rel_tol: None,
                overlap,
                ..Default::default()
            };
            let reg = Lasso::new(c.lambda);
            let what = format!("lasso accel={accel} overlap={overlap}");
            wire_check(|e| cell(lasso(&reg, &c, accel), e, mem(&ds)), &what);
        }
    }
}

#[test]
fn sim_counts_match_net_wire_svm() {
    let ds = svm_ds(4);
    for overlap in [false, true] {
        let c = svm_cfg(SvmLoss::L1, 8, 49, 64, 16, overlap);
        let what = format!("svm overlap={overlap}");
        wire_check(|e| cell(Method::svm(&c), e, mem(&ds)), &what);
    }
}

/// The kernel family's wire, all-hit rounds included: once every sampled
/// row is cached a block skips its allreduce on every rank, on the
/// cluster and on the mesh alike.
#[test]
fn sim_counts_match_net_wire_kdcd() {
    let ds = kdcd_ds(8);
    for (kernel, task, name) in kdcd_kernels() {
        for overlap in [false, true] {
            let c = kdcd_cfg(kernel, task, overlap);
            let what = format!("kdcd {name} overlap={overlap}");
            let nets = wire_check(|e| cell(Method::kdcd(&c), e, mem(&ds)), &what);
            let skipped = nets[2].kdcd[0].exchange_skipped;
            assert!(skipped > 0, "{what}: no all-hit round was exercised");
        }
    }
}

#[test]
fn overlap_never_slows_the_simulated_run() {
    let run = |overlap: bool| {
        let c = LassoConfig {
            mu: 2,
            s: 16,
            lambda: 0.2,
            seed: 50,
            max_iters: 128,
            trace_every: 0,
            rel_tol: None,
            overlap,
            ..Default::default()
        };
        let (ds, reg) = (lasso_ds(3), Lasso::new(c.lambda));
        report(cell(lasso(&reg, &c, true), sim(8), mem(&ds)))
    };
    let (v_on, v_off) = (run(true), run(false));
    // Same collectives and flops either way — overlap only hides time.
    assert_eq!(v_on.critical.messages, v_off.critical.messages);
    assert_eq!(v_on.critical.flops, v_off.critical.flops);
    assert!(v_on.running_time() <= v_off.running_time() + 1e-12);
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
            let c = svm_cfg(loss, 48, 77, 960, 120, true);
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

// ---------------------------------------------------------------------------
// The streamed column: an out-of-core shard directory is just another
// `SliceSource`, so every engine that accepts one must produce **bitwise**
// the in-memory run — iterates AND traced objectives — and, on the virtual
// cluster, charge the identical cost sequence (the partition weights come
// from the minor-nnz sidecar, integer-equal to the in-memory row scan).
// ---------------------------------------------------------------------------

fn shard_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("saco_matrix_shards_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_bitwise(streamed: &SolveResult, mem: &SolveResult, what: &str) {
    assert_eq!(streamed.x, mem.x, "{what}: streamed vs in-memory iterates");
    assert_eq!(
        streamed.trace.len(),
        mem.trace.len(),
        "{what}: trace length"
    );
    for (s, m) in streamed.trace.points().iter().zip(mem.trace.points()) {
        assert_eq!(s.value, m.value, "{what}: traced objective moved a bit");
    }
}

#[test]
fn streamed_lasso_is_bitwise_in_memory_on_seq_and_sim() {
    let ds = lasso_ds(1);
    let csc = ds.a.to_csc();
    let dir = shard_dir("lasso");
    let bounds = shard_plan(&slice_nnz(&csc), 7);
    write_csc(&dir, &csc, &bounds, Some(&ds.b)).expect("write shard dir");
    let reg = Lasso::new(0.05);
    for accel in [false, true] {
        for overlap in [false, true] {
            let c = lasso_cfg(4, 8, overlap);
            let what = format!("stream lasso accel={accel} overlap={overlap}");

            // Sequential: lookahead prefetch behind compute, tight budget.
            let seq_mem = run_seq_lasso(&ds, &reg, &c, accel);
            let streamed = cell(lasso(&reg, &c, accel), Engine::Seq, shards(&dir));
            assert_bitwise(streamed.result(), &seq_mem, &what);
            let st = streamed.io[0];
            assert!(
                st.prefetch_hits + st.prefetch_waits > 0,
                "{what}: lookahead prefetch never engaged"
            );

            // Virtual cluster: same iterates and the identical charges.
            let sim_mem = cell(lasso(&reg, &c, accel), sim(4), mem(&ds));
            let sim_st = cell(lasso(&reg, &c, accel), sim(4), shards(&dir));
            assert_bitwise(sim_st.result(), sim_mem.result(), &format!("{what} (sim)"));
            assert_reports_match(
                &report(sim_st),
                &report(sim_mem),
                &format!("{what} (sim charges)"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_svm_is_bitwise_in_memory_on_seq_and_sim() {
    let ds = svm_ds(2);
    let dir = shard_dir("svm");
    let bounds = shard_plan(&slice_nnz(&ds.a), 5);
    write_csr(&dir, &ds.a, &bounds, Some(&ds.b)).expect("write shard dir");
    for loss in [SvmLoss::L1, SvmLoss::L2] {
        for overlap in [false, true] {
            let c = svm_cfg(loss, 16, 71, 192, 48, overlap);
            let what = format!("stream svm {loss:?} overlap={overlap}");

            let seq_mem = sa_svm(&ds, &c);
            let streamed = cell(Method::svm(&c), Engine::Seq, shards(&dir));
            assert_bitwise(streamed.result(), &seq_mem, &what);

            let sim_mem = cell(Method::svm(&c), sim(4), mem(&ds));
            let sim_st = cell(Method::svm(&c), sim(4), shards(&dir));
            assert_bitwise(sim_st.result(), sim_mem.result(), &format!("{what} (sim)"));
            assert_reports_match(
                &report(sim_st),
                &report(sim_mem),
                &format!("{what} (sim charges)"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sa_solvers_with_s_1_are_bitwise_classical_shapes() {
    // s = 1 must agree with the classical solver at every traced point to
    // extremely tight tolerance (identical computation graph modulo benign
    // reassociation in the Gram kernel).
    let g = PaperDataset::Rcv1Binary.generate(0.05, 17);
    let c = svm_cfg(SvmLoss::L1, 1, 5, 400, 50, true);
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
    // Overlapped accelerated run: exercises the double-buffered block
    // entry, the overlap closure, and the piggybacked trace scalar.
    let t = cell(lasso(&reg, &lasso_cfg(2, 8, true), true), sim(8), mem(&ds)).telemetry;
    golden_check("sim_lasso_report.json", &run_report_json(&t));
    // Non-overlapped plain BCD: the sample-at-entry path and the
    // single-sequence update charges.
    let balanced4 = Engine::sim(4, CostModel::cray_xc30(), true);
    let t = cell(
        lasso(&reg, &lasso_cfg(3, 4, false), false),
        balanced4,
        mem(&ds),
    )
    .telemetry;
    golden_check("sim_bcd_report.json", &run_report_json(&t));
    let sds = svm_ds(78);
    let sc = svm_cfg(SvmLoss::L2, 8, 5, 96, 24, true);
    let t = cell(Method::svm(&sc), sim(8), mem(&sds)).telemetry;
    golden_check("sim_svm_report.json", &run_report_json(&t));
}

// ---------------------------------------------------------------------------
// The kernel column: K-DCD/K-BDCD is the third family through the same
// driver, so it owes the same matrix — with one twist. The exchanged
// payload is *raw dot-product rows* (kernel transforms are nonlinear and
// cannot be summed), so at p > 1 the allreduce tree re-associates the
// feature sums and the transformed kernel entries carry last-ulp noise
// into the iterate: net ≡ seq is bitwise at p = 1 and 1e-9 at p > 1,
// exactly like the linear families. Everything structural stays bitwise:
// seq ≡ sim, all ranks replicated (iterates *and* cache counters — the
// skip-the-collective decision rides on them), overlap on ≡ off,
// streamed ≡ in-memory, and the worker-thread count.
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

fn kdcd_cfg(kernel: KernelFn, task: KdcdTask, overlap: bool) -> KdcdConfig {
    KdcdConfig {
        task,
        kernel,
        lambda: 0.5,
        s: 8,
        seed: 61,
        max_iters: 128,
        trace_every: 32,
        overlap,
        cache_budget_bytes: 1 << 20,
    }
}

/// A kernel-family cell, unzipped into per-rank `(result, stats)` pairs.
fn run_kdcd(c: &KdcdConfig, engine: Engine, source: Source<'_>) -> Vec<(SolveResult, KdcdStats)> {
    let out = cell(Method::kdcd(c), engine, source);
    out.results.into_iter().zip(out.kdcd).collect()
}

/// The full kernel-family matrix: {rbf × K-SVM, poly × K-BDCD ridge} ×
/// overlap {off, on} × worker threads {1, 4} × p {1, 4}.
#[test]
fn kdcd_engine_matrix() {
    let ds = kdcd_ds(6);
    for (kernel, task, name) in kdcd_kernels() {
        for overlap in [false, true] {
            let c = kdcd_cfg(kernel, task, overlap);
            let mut per_threads: Vec<Vec<f64>> = Vec::new();
            for threads in [1usize, 4] {
                saco_par::set_threads(threads);
                let what = format!("{name} overlap={overlap} threads={threads}");
                let (seq_res, seq_stats) = kdcd(&ds, &c);
                // seq ≡ sim bitwise — iterates and the replicated
                // hit/miss/eviction stream.
                let (sim_res, sim_stats) = run_kdcd(&c, sim(4), mem(&ds)).remove(0);
                assert_eq!(seq_res.x, sim_res.x, "{what}: seq vs sim");
                assert_eq!(seq_stats.cache, sim_stats.cache, "{what}: cache streams");
                for p in [1usize, 4] {
                    let net = run_kdcd(&c, net(p), mem(&ds));
                    for (rank, (res, stats)) in net.iter().enumerate().skip(1) {
                        assert_eq!(res.x, net[0].0.x, "{what} p={p} rank {rank}");
                        assert_eq!(stats.cache, net[0].1.cache, "{what} p={p} rank {rank}");
                        assert_eq!(
                            stats.exchange_skipped, net[0].1.exchange_skipped,
                            "{what} p={p} rank {rank}: skip decisions must replicate"
                        );
                    }
                    if p == 1 {
                        assert_eq!(net[0].0.x, seq_res.x, "{what}: net p=1 vs seq");
                    } else {
                        for (a, b) in net[0].0.x.iter().zip(&seq_res.x) {
                            assert!(
                                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                                "{what} p={p}: {a} vs {b}"
                            );
                        }
                    }
                }
                per_threads.push(seq_res.x);
            }
            saco_par::set_threads(1);
            assert_eq!(
                per_threads[0], per_threads[1],
                "{name} overlap={overlap}: worker-thread count changed the bits"
            );
        }
    }
}

/// The streamed column for the kernel family: a CSR shard directory on
/// the sequential engine (and, windowed per rank, on the socket mesh) is
/// bitwise the in-memory run.
#[test]
fn streamed_kdcd_is_bitwise_in_memory() {
    let ds = kdcd_ds(9);
    let dir = shard_dir("kdcd");
    let bounds = shard_plan(&slice_nnz(&ds.a), 5);
    write_csr(&dir, &ds.a, &bounds, Some(&ds.b)).expect("write shard dir");
    for (kernel, task, name) in kdcd_kernels() {
        for overlap in [false, true] {
            let c = kdcd_cfg(kernel, task, overlap);
            let what = format!("stream kdcd {name} overlap={overlap}");
            let (seq_mem, mem_stats) = kdcd(&ds, &c);
            let (streamed, st_stats) = run_kdcd(&c, Engine::Seq, shards(&dir)).remove(0);
            assert_bitwise(&streamed, &seq_mem, &what);
            assert_eq!(st_stats.cache, mem_stats.cache, "{what}: cache streams");

            let p = 2;
            let mem_net = run_kdcd(&c, net(p), mem(&ds));
            let st_net = run_kdcd(&c, net(p), shards(&dir));
            for (rank, ((sr, ss), (mr, ms))) in st_net.iter().zip(&mem_net).enumerate() {
                assert_eq!(sr.x, mr.x, "{what} p={p} rank {rank}: streamed net");
                assert_eq!(ss.cache, ms.cache, "{what} p={p} rank {rank}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    let c = lasso_cfg(4, 8, true);
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
    let c = lasso_cfg(2, 8, false);
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
        let mut c = kdcd_cfg(kernel, task, true);
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

// ---------------------------------------------------------------------------
// The product, stated once as data: every method × engine × source ×
// overlap cell at p ∈ {1, 4} either matches the seq/in-memory reference
// under its engine's relation, or returns the documented `RunError`. No
// cell may panic.
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

/// The iterate a cell computed, reassembled to the global vector: the
/// linear SVM partitions `x` across ranks, everything else replicates it
/// (and every replica must agree bitwise).
fn global_x(out: &RunOutcome, partitioned: bool, what: &str) -> Vec<f64> {
    if partitioned {
        return out.results.iter().flat_map(|r| r.x.clone()).collect();
    }
    for r in &out.results[1..] {
        assert_eq!(r.x, out.results[0].x, "{what}: ranks disagree");
    }
    out.results[0].x.clone()
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

/// The method axis of the walk.
#[derive(Clone, Copy, Debug)]
enum Family {
    Lasso { accel: bool },
    Svm,
    Kdcd(KernelFn, KdcdTask),
}

fn try_cell(
    family: Family,
    overlap: bool,
    engine: Engine,
    source: Source<'_>,
) -> Result<RunOutcome, RunError> {
    match family {
        Family::Lasso { accel } => {
            let (reg, c) = (Lasso::new(0.05), lasso_cfg(4, 8, overlap));
            run(&RunSpec::new(lasso(&reg, &c, accel), engine, source))
        }
        Family::Svm => {
            let c = svm_cfg(SvmLoss::L1, 8, 71, 96, 24, overlap);
            run(&RunSpec::new(Method::svm(&c), engine, source))
        }
        Family::Kdcd(kernel, task) => {
            let c = kdcd_cfg(kernel, task, overlap);
            run(&RunSpec::new(Method::kdcd(&c), engine, source))
        }
    }
}

/// The cell's wire counts as `(allreduces, payload words)` in program
/// order — what one rank joined and handed in. The modeled engines count
/// them on the ledger; the socket mesh's are inverted from the frames and
/// bytes its ranks sent during the solve by the tree identity: an
/// allreduce of `w` words crosses `2(P−1)` tree edges, each one frame of
/// `HEADER_LEN + 8w` bytes. A lone rank sends nothing and counts none.
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
    (frames / edges, payload / 8 / edges)
}

/// One line of `tests/goldens/cells.txt`: the cell, its objective's bits
/// and iterations, and on the rank engines its [`wire_counts`].
fn cell_line(what: &str, engine: Engine, out: &RunOutcome) -> String {
    let r = out.result();
    let bits = r.final_value().to_bits();
    let mut line = format!("{what} obj={bits:016x} iters={}", r.iters);
    if engine.ranks().is_some() {
        let (coll, words) = wire_counts(engine, &out.telemetry);
        line += &format!(" coll={coll} words={words}");
    }
    line
}

/// Walk one method over every engine × source × overlap × p, appending
/// one [`cell_line`] per cell that runs to `lines`. Each shard directory
/// is tagged with whether the method can stream it; the other one must be
/// `RunError::WrongAxis` on every engine.
fn walk_cells(
    name: &str,
    family: Family,
    ds: &Dataset,
    dirs: [(&Path, bool); 2],
    lines: &mut Vec<String>,
) {
    // The linear SVM partitions `x` across ranks; the rest replicate it.
    let partitioned = matches!(family, Family::Svm);
    for overlap in [false, true] {
        let reference = try_cell(family, overlap, Engine::Seq, mem(ds)).expect("reference cell");
        let reference = global_x(&reference, false, "reference");
        for (engine_name, engine, at_one, beyond) in ENGINE_TABLE {
            for p in [1usize, 2, 4] {
                if engine(p).ranks().is_none() && p > 1 {
                    continue; // `seq` has no ranks: p = 1 is its one cell
                }
                let rel = if p == 1 { at_one } else { beyond };
                let what = format!("{family:?} overlap={overlap} {engine_name} p={p}");
                let cell_id = format!("{name} overlap={overlap} {engine_name} p={p}");
                let in_memory = try_cell(family, overlap, engine(p), mem(ds)).expect(&what);
                lines.push(cell_line(&format!("{cell_id} mem"), engine(p), &in_memory));
                let split = partitioned && in_memory.results.len() > 1;
                let x_mem = global_x(&in_memory, split, &what);
                assert_related(&x_mem, &reference, rel, &what);
                for (dir, streams) in dirs {
                    let what = format!("{what} shard:{}", dir.display());
                    match try_cell(family, overlap, engine(p), shards(dir)) {
                        Ok(out) if streams => {
                            // Streamed ≡ in-memory is bitwise on every
                            // engine, whatever the engine's own relation
                            // to seq.
                            assert_eq!(global_x(&out, split, &what), x_mem, "{what}");
                            assert_eq!(out.io.len(), out.results.len(), "{what}: io views");
                            lines.push(cell_line(&format!("{cell_id} shard"), engine(p), &out));
                        }
                        Err(RunError::WrongAxis { .. }) if !streams => {}
                        other => panic!("{what}: unexpected cell outcome {other:?}"),
                    }
                }
            }
        }
    }
}

/// Every cell, including the ones no other test reaches: streamed SVM and
/// streamed K-DCD on the socket mesh, streamed K-DCD on the virtual
/// cluster, and every wrong-axis cell as a typed error. Every cell that
/// runs is pinned in `tests/goldens/cells.txt`, so a change that moved
/// the bits consistently across engines still fails here, naming the
/// cells it moved.
#[test]
fn product_walk_covers_streamed_net_kdcd_cells() {
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

    let mut lines = Vec::new();
    for (name, accel) in [("bcd", false), ("accbcd", true)] {
        walk_cells(
            name,
            Family::Lasso { accel },
            &lasso_data,
            for_lasso,
            &mut lines,
        );
    }
    // Full slices through every cell. The dual families below already walk
    // them: `kdcd_ds` is `dense_gaussian(48, 16)`, every row full.
    let dense = Family::Lasso { accel: true };
    walk_cells("accbcd-dense", dense, &dense_data, for_dense, &mut lines);
    walk_cells("svm-l1", Family::Svm, &dual_data, for_duals, &mut lines);
    for (kernel, task, name) in kdcd_kernels() {
        let family = Family::Kdcd(kernel, task);
        walk_cells(name, family, &dual_data, for_duals, &mut lines);
    }
    lines.push(String::new());
    golden_check("cells.txt", &lines.join("\n"));

    // The rest of the documented error surface.
    let accbcd = Family::Lasso { accel: true };
    for engine in [sim(0), net(0)] {
        let err = try_cell(accbcd, true, engine, mem(&lasso_data));
        assert!(matches!(err, Err(RunError::ZeroRanks)), "{err:?}");
    }
    let (reg, zero_s) = (Lasso::new(0.05), lasso_cfg(4, 0, true));
    let zero_s = RunSpec::new(lasso(&reg, &zero_s, true), Engine::Seq, mem(&lasso_data));
    let err = run(&zero_s);
    assert!(matches!(err, Err(RunError::Config(_))), "{err:?}");
    let err = try_cell(
        accbcd,
        true,
        sim(4),
        shards(Path::new("/nonexistent/shards")),
    );
    assert!(matches!(err, Err(RunError::Io { .. })), "{err:?}");
    for dir in [csc_dir, csr_dir, dense_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
