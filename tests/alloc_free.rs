//! Steady state allocates nothing per unit of work, counted by a global
//! allocator.
//!
//! * **Solves.** `run` on a row of the engine walk makes the same number
//!   of allocations at H and at 2H blocks: set-up and results allocate, a
//!   block does not. The Lasso rows run on seq, sim, net and from shards;
//!   the SVM and K-DCD rows on seq, sim and net. The `seq::sa_accbcd`
//!   and `seq::sa_svm` shims hold the same.
//! * **Kernels.** Warm row-intersection `sampled_gram_into` calls make
//!   the same number of allocations at H and at 2H calls; a warm pooled
//!   call allocates the same whatever its tile count.
//! * **Serve.** With one server and one client in this process, a warm
//!   score request allocates the same on each side whether the window
//!   holds N or 2N requests: the reply's score vector and nothing else
//!   (no per-frame buffer, no per-row vector).
//!
//! The allocator counts fresh allocations (`alloc`, `alloc_zeroed`) in a
//! const-initialized thread-local, so counting never allocates, and in
//! one process-wide total. Growing a held buffer (`realloc`) is not a new
//! allocation and is not counted; amortized growth is logarithmic in the
//! work, never linear.

use datagen::{binary_classification, dense_gaussian, planted_regression, uniform_sparse};
use mpisim::CostModel;
use saco::prox::{GroupLasso, Lasso, Regularizer};
use saco::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
use saco::serve::{
    serve, Addr, Listener, ModelArtifact, Request, Response, ServeClient, ServeConfig,
};
use saco::{KdcdConfig, KdcdTask, LassoConfig, SvmConfig, SvmLoss};
use saco_telemetry::Registry;
use sparsela::gram::sampled_gram_into;
use sparsela::io::Dataset;
use sparsela::KernelFn;
use sparsela::{DenseMatrix, GramWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// The process-wide count is read by one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// A two-rank mesh.
const NET2: Engine = Engine::Net {
    p: 2,
    balanced: false,
};

fn lasso_ds() -> Dataset {
    let a = uniform_sparse(120, 60, 0.15, 11);
    planted_regression(a, 5, 0.05, 11).dataset
}

/// Allocations of one `run` of `method` on `engine` that must run `iters`
/// iterations, and its outcome: this thread's count, or the whole
/// process's when `all` (the mesh's ranks are threads of their own).
fn run_allocs<R: Regularizer>(
    method: Method<'_, R>,
    engine: Engine,
    source: Source<'_>,
    iters: usize,
    all: bool,
) -> (u64, RunOutcome) {
    let count = || {
        if all {
            ALL_ALLOCS.load(Ordering::SeqCst)
        } else {
            thread_allocs()
        }
    };
    let before = count();
    let out = run(&RunSpec::new(method, engine, source));
    let n = count() - before;
    let out = out.expect("a walked cell");
    assert!(out.results.iter().all(|r| r.iters == iters));
    (n, out)
}

/// `allocs(blocks)` is the same at 96 blocks as at 192, after one warm-up
/// run at 48. A process-wide count can only gain from the harness's own
/// bookkeeping, so with `all` a pair is taken again before a difference
/// counts.
fn assert_flat(cell: &str, all: bool, mut allocs: impl FnMut(usize) -> u64) {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    allocs(48);
    let mut pairs = Vec::new();
    for _ in 0..if all { 3 } else { 1 } {
        let pair = (allocs(96), allocs(192));
        pairs.push(pair);
        if pair.0 == pair.1 {
            return;
        }
    }
    panic!("{cell}: allocations at 96 blocks differ from those at 192: {pairs:?}");
}

/// The walk's `accbcd` row (µ = 4, s = 8, traced every 24 iterations).
fn assert_flat_per_block<R: Regularizer>(reg: &R, engine: Engine, source: Source<'_>, all: bool) {
    assert_flat(engine.name(), all, |blocks| {
        let s = 8;
        let cfg = LassoConfig {
            mu: 4,
            s,
            lambda: 0.05,
            seed: 93,
            max_iters: blocks * s,
            trace_every: 24,
            rel_tol: None,
            ..Default::default()
        };
        let method = Method::Lasso {
            reg,
            cfg: &cfg,
            accel: true,
        };
        run_allocs(method, engine, source, blocks * s, all).0
    });
}

/// Row intersection's lists, its diagonal and its partnered-node list
/// live in the workspace and only grow: `calls` warm row-intersection
/// `sampled_gram_into` calls allocate nothing per call, whatever each
/// selection's node count. Columns of ~8 nonzeros on 4 000 rows at k = 128
/// (16 draws of µ = 8) are the shape the choice sends to row
/// intersection.
#[test]
fn a_row_intersection_gram_allocates_nothing_per_call() {
    let csc = uniform_sparse(4_000, 1_000, 0.002, 17).to_csc();
    let mut rng = xrng::rng_from_seed(18);
    let sels: Vec<Vec<usize>> = (0..192)
        .map(|_| {
            let mut sel = Vec::new();
            for _ in 0..16 {
                xrng::sample_without_replacement_into(&mut rng, 1_000, 8, &mut sel);
            }
            sel
        })
        .collect();
    let (mut ws, mut g) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
    assert_flat("sampled_gram_into", false, |calls| {
        let before = thread_allocs();
        for sel in &sels[..calls] {
            sampled_gram_into(&csc, sel, 1, &mut ws, &mut g);
        }
        thread_allocs() - before
    });
}

/// A warm pooled call allocates what starting its second worker does and
/// nothing per tile: 8, 16 and 32 lane blocks (k = 64, 128 and 256 dense
/// columns of 2 000 rows, full-slice schedule) on a pool of two make the
/// same number of allocations in four calls. Counted process-wide, as
/// the worker allocates on its own thread, and taken again before a
/// difference counts. On a 1-CPU host the pool serializes and every call
/// runs in place, so there this test cannot bite.
#[test]
fn a_pooled_gram_allocates_the_same_whatever_its_tile_count() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let csc = dense_gaussian(2_000, 256, 19).to_csc();
    let (mut ws, mut g) = (GramWorkspace::new(), DenseMatrix::zeros(0, 0));
    let mut per_call = |k: usize| {
        let sel: Vec<usize> = (0..k).collect();
        for _ in 0..3 {
            sampled_gram_into(&csc, &sel, 2, &mut ws, &mut g);
        }
        let before = ALL_ALLOCS.load(Ordering::SeqCst);
        for _ in 0..4 {
            sampled_gram_into(&csc, &sel, 2, &mut ws, &mut g);
        }
        ALL_ALLOCS.load(Ordering::SeqCst) - before
    };
    let mut tries = Vec::new();
    for _ in 0..3 {
        let counts = [64, 128, 256].map(&mut per_call);
        tries.push(counts);
        if counts.iter().all(|&c| c == counts[0]) {
            return;
        }
    }
    panic!("allocations in four calls at k = 64, 128, 256 differ: {tries:?}");
}

/// The walk's data for the dual rows: 48 full rows of 16 features.
fn dual_ds() -> Dataset {
    binary_classification(dense_gaussian(48, 16, 12), 0.05, 12).dataset
}

#[test]
fn a_seq_run_allocates_nothing_per_block() {
    let ds = lasso_ds();
    assert_flat_per_block(&Lasso::new(0.05), Engine::Seq, Source::InMemory(&ds), false);
}

/// Group-lasso trace points evaluate the penalty through held scratch.
#[test]
fn a_group_lasso_seq_run_allocates_nothing_per_block() {
    let ds = lasso_ds();
    let reg = GroupLasso::uniform(0.05, ds.num_features(), 4);
    assert_flat_per_block(&reg, Engine::Seq, Source::InMemory(&ds), false);
}

/// The virtual cluster's traced objective reads the implicit accelerated
/// iterate entry by entry, as seq's does.
#[test]
fn a_sim_run_allocates_nothing_per_block() {
    let ds = lasso_ds();
    let sim = Engine::sim(4, CostModel::cray_xc30(), false);
    assert_flat_per_block(&Lasso::new(0.05), sim, Source::InMemory(&ds), false);
}

/// The walk's `svm-l1` row (s = 8, traced every 24 iterations).
fn svm_cfg(blocks: usize) -> SvmConfig {
    let s = 8;
    SvmConfig {
        loss: SvmLoss::L1,
        lambda: 1.0,
        s,
        seed: 71,
        max_iters: blocks * s,
        trace_every: 24,
        gap_tol: None,
    }
}

fn assert_svm_flat(engine: Engine, all: bool) {
    let ds = dual_ds();
    assert_flat("svm-l1", all, |blocks| {
        let cfg = svm_cfg(blocks);
        let source = Source::InMemory(&ds);
        run_allocs(Method::svm(&cfg), engine, source, blocks * 8, all).0
    });
}

#[test]
fn an_svm_seq_run_allocates_nothing_per_block() {
    assert_svm_flat(Engine::Seq, false);
}

#[test]
fn an_svm_sim_run_allocates_nothing_per_block() {
    assert_svm_flat(Engine::sim(4, CostModel::cray_xc30(), false), false);
}

#[test]
fn an_svm_net_run_allocates_nothing_per_block() {
    assert_svm_flat(NET2, true);
}

/// The walk's `rbf/ksvm` row (s = 8, traced every 32 iterations) under a
/// cache budget of half its 48 rows, so blocks keep missing and evicting
/// long after the cache first fills (within the first 48 blocks): a
/// missed row is transformed into an evicted row's buffer.
fn assert_ksvm_flat(engine: Engine, all: bool) {
    let ds = dual_ds();
    let m = ds.num_points();
    let mut evictions = Vec::new();
    assert_flat("rbf/ksvm", all, |blocks| {
        let s = 8;
        let cfg = KdcdConfig {
            task: KdcdTask::Svm(SvmLoss::L1),
            kernel: KernelFn::Rbf { gamma: 0.5 },
            lambda: 0.5,
            s,
            seed: 61,
            max_iters: blocks * s,
            trace_every: 32,
            cache_budget_bytes: 8 * m * m / 2,
        };
        let method = Method::kdcd(&cfg);
        let (n, out) = run_allocs(method, engine, Source::InMemory(&ds), blocks * s, all);
        evictions.push(out.kdcd[0].cache.evictions);
        n
    });
    // 48, 96 and 192 blocks: the cache keeps evicting after the warm-up.
    assert!(
        evictions[0] > 0 && evictions[1] > evictions[0] && evictions[2] > evictions[1],
        "{evictions:?}"
    );
}

#[test]
fn a_kernel_svm_seq_run_allocates_nothing_per_missed_row() {
    assert_ksvm_flat(Engine::Seq, false);
}

#[test]
fn a_kernel_svm_sim_run_allocates_nothing_per_missed_row() {
    assert_ksvm_flat(Engine::sim(4, CostModel::cray_xc30(), false), false);
}

#[test]
fn a_kernel_svm_net_run_allocates_nothing_per_missed_row() {
    assert_ksvm_flat(NET2, true);
}

/// The `seq::sa_accbcd` shim: the `accbcd` row through its own entry
/// point, which converts the data once per solve.
#[test]
fn the_sa_accbcd_shim_allocates_nothing_per_block() {
    let ds = lasso_ds();
    assert_flat("seq::sa_accbcd", false, |blocks| {
        let s = 8;
        let cfg = LassoConfig {
            mu: 4,
            s,
            lambda: 0.05,
            seed: 93,
            max_iters: blocks * s,
            trace_every: 24,
            rel_tol: None,
            ..Default::default()
        };
        let before = thread_allocs();
        let out = saco::seq::sa_accbcd(&ds, &Lasso::new(0.05), &cfg);
        assert_eq!(out.iters, blocks * s);
        thread_allocs() - before
    });
}

/// The `seq::sa_svm` shim on the `svm-l1` row.
#[test]
fn the_sa_svm_shim_allocates_nothing_per_block() {
    let ds = dual_ds();
    assert_flat("seq::sa_svm", false, |blocks| {
        let cfg = svm_cfg(blocks);
        let before = thread_allocs();
        let out = saco::seq::sa_svm(&ds, &cfg);
        assert_eq!(out.iters, blocks * 8);
        thread_allocs() - before
    });
}

/// Every rank of a two-rank mesh, and its wires, counted together.
#[test]
fn a_net_run_allocates_nothing_per_block() {
    let ds = lasso_ds();
    assert_flat_per_block(&Lasso::new(0.05), NET2, Source::InMemory(&ds), true);
}

/// Streamed from shards under a budget that holds the whole store, the
/// solver thread's residency calls — `prepare`, and the 32-deep ring's
/// announcements (`foresee`, whose uses live in the cache's held node
/// pool) and prefetches — use held buffers: once every shard is in, a
/// block allocates nothing there. The loader thread's reads do allocate,
/// and are not counted.
#[test]
fn a_streamed_seq_run_allocates_nothing_per_block_on_the_solver_thread() {
    let ds = lasso_ds();
    let dir = std::env::temp_dir().join(format!("saco-alloc-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csc = ds.a.to_csc();
    let bounds: Vec<usize> = (0..=csc.cols()).step_by(4).collect();
    sparsela::shard::write_csc(&dir, &csc, &bounds, Some(&ds.b)).expect("write shards");
    let shards = Source::Shards {
        dir: &dir,
        budget: u64::MAX,
    };
    assert_flat_per_block(&Lasso::new(0.05), Engine::Seq, shards, false);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(server, client)` allocations over `n` score requests, the pool
/// cycled. The server's share is the process total less the client's:
/// nothing else in the process runs while the window is open.
fn score_window(client: &mut ServeClient, pool: &[Request], n: usize) -> (u64, u64) {
    let (all, mine) = (ALL_ALLOCS.load(Ordering::SeqCst), thread_allocs());
    for i in 0..n {
        let req = &pool[i % pool.len()];
        let reply = client.call(req);
        let Request::Score { rows } = req else {
            unreachable!("a pool of score requests")
        };
        assert!(
            matches!(&reply, Ok(Response::Scores(p)) if p.len() == rows.len()),
            "{reply:?}"
        );
    }
    let client_allocs = thread_allocs() - mine;
    let all_allocs = ALL_ALLOCS.load(Ordering::SeqCst) - all;
    (all_allocs - client_allocs, client_allocs)
}

#[test]
fn a_warm_score_request_allocates_only_its_reply() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ds = {
        let a = uniform_sparse(200, 60, 0.2, 11);
        planted_regression(a, 5, 0.05, 11).dataset
    };
    let cfg = LassoConfig {
        mu: 4,
        s: 8,
        lambda: 0.1,
        seed: 3,
        max_iters: 160,
        trace_every: 0,
        ..Default::default()
    };
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg);
    // Four 32-row requests of different row lengths, so the held buffers
    // are refilled with shorter and longer rows in turn.
    let pool: Vec<Request> = (0..4)
        .map(|p| Request::Score {
            rows: (0..32)
                .map(|j| {
                    let r = ds.a.row((p * 41 + j * 7) % ds.a.rows());
                    (r.indices.to_vec(), r.values.to_vec())
                })
                .collect(),
        })
        .collect();
    let path = std::env::temp_dir().join(format!("saco-alloc-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let addr = Addr::Unix(path.clone());
    let listener = Listener::bind(&addr).expect("bind");
    std::thread::scope(|sc| {
        let server = sc.spawn(|| {
            serve(
                &listener,
                &ds,
                art,
                &ServeConfig::default(),
                &mut Registry::new(),
            )
        });
        let mut client = ServeClient::connect_default(&addr).expect("connect");
        score_window(&mut client, &pool, 64);
        // Bookkeeping another test's end leaves to the harness can only
        // add to the process count, so a window pair is taken again
        // before a difference counts.
        let n = 200;
        let mut pairs = Vec::new();
        for _ in 0..3 {
            let pair = (
                score_window(&mut client, &pool, n),
                score_window(&mut client, &pool, 2 * n),
            );
            pairs.push(pair);
            if pair.0 .0 <= n as u64 && pair.1 .0 <= 2 * n as u64 {
                break;
            }
        }
        client.shutdown().expect("shutdown");
        client.bye();
        server.join().expect("server thread").expect("serve run");
        let ((server_n, client_n), (server_2n, client_2n)) = *pairs.last().expect("a pair");
        // One reply vector per request on each side.
        assert_eq!(client_n, n as u64, "client, {n} requests: {pairs:?}");
        assert_eq!(client_2n, 2 * n as u64, "client, {} requests", 2 * n);
        assert_eq!(server_n, n as u64, "server, {n} requests: {pairs:?}");
        assert_eq!(
            server_2n,
            2 * n as u64,
            "server, {} requests: {pairs:?}",
            2 * n
        );
    });
    let _ = std::fs::remove_file(&path);
}
