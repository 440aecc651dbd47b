//! Steady state allocates nothing per unit of work, counted by a global
//! allocator.
//!
//! * **Seq solve.** `run(Engine::Seq)` on a Lasso row of the engine walk
//!   makes the same number of allocations at H and at 2H blocks: set-up
//!   and results allocate, a block does not.
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

use datagen::{planted_regression, uniform_sparse};
use saco::prox::Lasso;
use saco::run::{run, Engine, Method, RunSpec, Source};
use saco::serve::{
    serve, Addr, Listener, ModelArtifact, Request, Response, ServeClient, ServeConfig,
};
use saco::LassoConfig;
use saco_telemetry::Registry;
use sparsela::io::Dataset;
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

fn lasso_ds() -> Dataset {
    let a = uniform_sparse(120, 60, 0.15, 11);
    planted_regression(a, 5, 0.05, 11).dataset
}

#[test]
fn a_seq_run_allocates_nothing_per_block() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ds = lasso_ds();
    let reg = Lasso::new(0.05);
    let s = 8;
    let allocs_at = |blocks: usize| {
        // The walk's `accbcd` row: µ = 4, s = 8, traced every 24 iterations.
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
            reg: &reg,
            cfg: &cfg,
            accel: true,
        };
        let before = thread_allocs();
        let out = run(&RunSpec::new(method, Engine::Seq, Source::InMemory(&ds)));
        let n = thread_allocs() - before;
        assert!(out.expect("a seq cell").result().iters == blocks * s);
        n
    };
    allocs_at(48);
    let (h, h2) = (allocs_at(96), allocs_at(192));
    assert_eq!(h, h2, "{h} allocations at 96 blocks, {h2} at 192");
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
