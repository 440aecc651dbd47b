//! End-to-end `saco serve` round trips over a real Unix socket.
//!
//! Three exactness contracts, each pinned bitwise:
//!
//! * **Score ≡ SpMV** — a served score batch equals `CsrMatrix::spmv` on
//!   the same rows bit for bit (both are the same serial dot chain).
//! * **Train-delta ≡ uncut run** — resuming a `t`-iteration artifact
//!   (`t` a multiple of `s`) for `k` more iterations lands on the exact
//!   bits of training `t + k` from scratch: the artifact restored the
//!   iterate, the residual bits, and the replayed RNG.
//! * **Path serving ≡ `lasso_path`** — grid-order path-point requests
//!   reproduce the offline path's objectives bitwise (the server's path
//!   chain cold-starts at the artifact seed), and an exact-λ repeat is a
//!   cache hit.
//!
//! Around them, the serving loop's own promises: a score that starts
//! after a train reply reads the model that reply published; a hostile
//! or stalled client costs only its own connection; `max_requests` and
//! `Shutdown` stop the server, and nothing sent afterwards hangs.

use datagen::{planted_regression, uniform_sparse};
use netcomm::frame::{Frame, FrameKind};
use saco::path::lasso_path;
use saco::prox::Lasso;
use saco::serve::{
    serve, Addr, Listener, ModelArtifact, Request, Response, ServeClient, ServeConfig, ServeReport,
    MAX_REQUEST_ITERS,
};
use saco::LassoConfig;
use saco_telemetry::Registry;
use sparsela::io::Dataset;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

fn problem() -> Dataset {
    let a = uniform_sparse(200, 60, 0.2, 11);
    planted_regression(a, 5, 0.05, 11).dataset
}

fn train_cfg() -> LassoConfig {
    LassoConfig {
        mu: 4,
        s: 8,
        lambda: 0.1,
        seed: 3,
        max_iters: 160, // a multiple of s: resume lands on a block boundary
        trace_every: 0,
        ..Default::default()
    }
}

fn sock_addr(tag: &str) -> Addr {
    let path = std::env::temp_dir().join(format!("saco-serve-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Addr::Unix(path)
}

/// Boot a server on a Unix socket in its own thread.
fn spawn_server(
    tag: &str,
    ds: Dataset,
    art: ModelArtifact,
    scfg: ServeConfig,
) -> (Addr, JoinHandle<ServeReport>) {
    let addr = sock_addr(tag);
    let listener = Listener::bind(&addr).expect("bind serve socket");
    let server = std::thread::spawn(move || {
        let mut reg = Registry::new();
        serve(&listener, &ds, art, &scfg, &mut reg).expect("serve run")
    });
    (addr, server)
}

/// Run `f` on its own thread and fail the test if it has not finished
/// within `secs` seconds: a hang becomes a failure, not a stuck suite.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what} did not finish within {secs} s"))
}

/// A raw connection to the server's Unix socket, for frames no
/// `ServeClient` would send.
fn raw_connect(addr: &Addr) -> UnixStream {
    let Addr::Unix(path) = addr else {
        unreachable!("tests serve on Unix sockets")
    };
    UnixStream::connect(path).expect("raw connect")
}

/// Boot a server on a Unix socket, hand a connected client to `f`, shut
/// down cleanly, and return the server's report.
fn with_server<F>(
    tag: &str,
    ds: Dataset,
    art: ModelArtifact,
    scfg: ServeConfig,
    f: F,
) -> ServeReport
where
    F: FnOnce(&Addr, &mut ServeClient),
{
    let (addr, server) = spawn_server(tag, ds, art, scfg);
    let mut client = ServeClient::connect_default(&addr).expect("connect");
    f(&addr, &mut client);
    client.shutdown().expect("shutdown");
    server.join().expect("server thread")
}

fn rows_of(ds: &Dataset) -> Vec<(Vec<usize>, Vec<f64>)> {
    (0..ds.a.rows())
        .map(|i| {
            let r = ds.a.row(i);
            (r.indices.to_vec(), r.values.to_vec())
        })
        .collect()
}

#[test]
fn served_scores_match_spmv_bitwise() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "score",
        ds_for_server,
        art,
        ServeConfig::default(),
        |_, client| {
            // Split across two requests, so the connection answers
            // more than one score in turn.
            let mid = rows.len() / 2;
            let mut preds = client.score(rows[..mid].to_vec()).expect("score");
            preds.extend(client.score(rows[mid..].to_vec()).expect("score"));
            assert_eq!(preds.len(), expect.len());
            for (i, (p, e)) in preds.iter().zip(&expect).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    e.to_bits(),
                    "served score for row {i} diverged from spmv"
                );
            }
        },
    );
    assert_eq!(report.protocol_errors, 0);
    assert!(report.requests >= 3); // two score batches + shutdown
}

#[test]
fn train_delta_resumes_bitwise() {
    let ds = problem();
    let cfg = train_cfg();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg);
    // The uncut reference: 160 + 80 iterations in one run.
    let full_cfg = LassoConfig {
        max_iters: 240,
        ..cfg.clone()
    };
    let direct = saco::seq::sa_bcd(&ds, &Lasso::new(0.1), &full_cfg);
    let expect_scores = ds.a.spmv(&direct.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "train",
        ds_for_server,
        art,
        ServeConfig::default(),
        |_, client| {
            let (objective, _nnz, total_iters) = client.train_delta(0.1, 80).expect("train delta");
            assert_eq!(total_iters, 240);
            assert_eq!(
                objective.to_bits(),
                direct.final_value().to_bits(),
                "resumed objective diverged from the uncut run"
            );
            // The resumed iterate itself must match: score through it.
            let preds = client.score(rows).expect("score after delta");
            for (p, e) in preds.iter().zip(&expect_scores) {
                assert_eq!(p.to_bits(), e.to_bits());
            }
        },
    );
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn path_points_match_lasso_path_and_cache_hits() {
    let ds = problem();
    let cfg = train_cfg();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg);
    let offline = lasso_path(&ds, &cfg, 5, 0.01, Lasso::new);
    let budget = cfg.max_iters as u64;
    let ds_for_server = ds.clone();
    let report = with_server(
        "path",
        ds_for_server,
        art,
        ServeConfig::default(),
        |_, client| {
            for (k, p) in offline.points.iter().enumerate() {
                let (objective, nnz, cached) =
                    client.path_point(p.lambda, budget).expect("path point");
                assert!(!cached, "first visit of point {k} cannot be cached");
                assert_eq!(
                    objective.to_bits(),
                    p.objective.to_bits(),
                    "served path point {k} diverged from lasso_path"
                );
                assert_eq!(nnz as usize, p.nonzeros);
            }
            // Exact-λ repeat: answered from the cache, same bits.
            let p2 = &offline.points[2];
            let (objective, _, cached) =
                client.path_point(p2.lambda, budget).expect("cached point");
            assert!(cached, "exact-λ repeat must be a cache hit");
            assert_eq!(objective.to_bits(), p2.objective.to_bits());
        },
    );
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn score_only_artifacts_refuse_training() {
    let ds = problem();
    let cfg = train_cfg();
    let lasso = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg);
    // Strip the residual: same solution, but no resume provenance.
    let score_only = ModelArtifact::from_solution(
        "svm",
        &ds,
        &cfg,
        0.1,
        lasso.x.clone(),
        lasso.iters,
        lasso.initial_obj,
        lasso.final_obj,
    );
    assert!(!score_only.resumable());
    let ds_for_server = ds.clone();
    with_server(
        "refuse",
        ds_for_server,
        score_only,
        ServeConfig::default(),
        |_, client| {
            assert!(
                client.train_delta(0.1, 8).is_err(),
                "a score-only artifact must refuse train-delta"
            );
            assert!(client.path_point(0.1, 8).is_err());
            // Scoring still works.
            let preds = client.score(rows_of(&ds)).expect("score");
            let expect = ds.a.spmv(&lasso.x);
            for (p, e) in preds.iter().zip(&expect) {
                assert_eq!(p.to_bits(), e.to_bits());
            }
        },
    );
}

#[test]
fn concurrent_clients_all_get_exact_answers() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "concurrent",
        ds_for_server,
        art,
        ServeConfig::default(),
        |addr, _| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let addr = addr.clone();
                    let rows = rows.clone();
                    let expect = expect.clone();
                    std::thread::spawn(move || {
                        let mut c = ServeClient::connect_default(&addr).expect("connect");
                        for _ in 0..3 {
                            let preds = c.score(rows.clone()).expect("score");
                            for (p, e) in preds.iter().zip(&expect) {
                                assert_eq!(p.to_bits(), e.to_bits());
                            }
                        }
                        c.bye();
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("client thread");
            }
        },
    );
    assert_eq!(report.protocol_errors, 0);
    assert!(report.requests >= 13); // 4 clients × 3 batches + shutdown
}

#[test]
fn a_score_after_any_train_reply_reads_the_published_model() {
    let ds = problem();
    let cfg = train_cfg();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg);
    let rows = rows_of(&ds);
    // The uncut references: 160 + 40 and 160 + 80 iterations in one run.
    let uncut: Vec<Vec<f64>> = [200, 240]
        .iter()
        .map(|&iters| {
            let full_cfg = LassoConfig {
                max_iters: iters,
                ..cfg.clone()
            };
            ds.a.spmv(&saco::seq::sa_bcd(&ds, &Lasso::new(0.1), &full_cfg).x)
        })
        .collect();
    let ds_for_server = ds.clone();
    let report = with_server(
        "snapshot",
        ds_for_server,
        art,
        ServeConfig::default(),
        |addr, a| {
            let mut b = ServeClient::connect_default(addr).expect("connect b");
            for (k, expect) in uncut.iter().enumerate() {
                let (_, _, total_iters) = a.train_delta(0.1, 40).expect("train delta");
                assert_eq!(total_iters, 200 + 40 * k as u64);
                let preds = b.score(rows.clone()).expect("score on b");
                for (i, (p, e)) in preds.iter().zip(expect).enumerate() {
                    assert_eq!(
                        p.to_bits(),
                        e.to_bits(),
                        "row {i} after delta {k} scored a stale model"
                    );
                }
            }
            b.bye();
        },
    );
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn hostile_requests_get_typed_errors_and_spare_other_connections() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "hostile",
        ds_for_server,
        art,
        ServeConfig::default(),
        move |addr, client| {
            // A 40-byte score frame claiming one row of 2^40 entries: the
            // decoder must refuse the count, not allocate 8 TiB for it.
            let mut frame = Request::Score { rows: vec![] }.to_frame(7);
            frame.bytes = [1u64, 1 << 40]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            assert_eq!(frame.wire_len(), 40);
            let mut raw = raw_connect(addr);
            frame.write_to(&mut raw).expect("send hostile frame");
            let reply = Frame::read_from(&mut raw)
                .expect("read reply")
                .expect("reply frame");
            assert_eq!(reply.seq, 7);
            assert!(
                matches!(Response::from_frame(&reply), Ok(Response::Error(_))),
                "an 8 TiB count must get a typed error"
            );
            // An out-of-range index behind an in-range one, then indices
            // that do not increase: each a typed error naming row and index.
            let err = client
                .score(vec![(vec![5, 1_000_000, 7], vec![1.0, 2.0, 3.0])])
                .expect_err("out-of-range index");
            let msg = err.to_string();
            assert!(msg.contains("row 0") && msg.contains("1000000"), "{msg}");
            let err = client
                .score(vec![(vec![0], vec![1.0]), (vec![5, 3], vec![1.0, 2.0])])
                .expect_err("decreasing indices");
            let msg = err.to_string();
            assert!(msg.contains("row 1") && msg.contains('3'), "{msg}");
            // A λ the regularizer would refuse is refused on the wire.
            for lambda in [-1.0, f64::NAN] {
                assert!(client.train_delta(lambda, 8).is_err(), "λ = {lambda}");
            }
            // Both connections, and a fresh one, still get exact scores.
            let mut fresh = ServeClient::connect_default(addr).expect("connect");
            for c in [client, &mut fresh] {
                let preds = c.score(rows.clone()).expect("score after hostile input");
                for (p, e) in preds.iter().zip(&expect) {
                    assert_eq!(p.to_bits(), e.to_bits());
                }
            }
            fresh.bye();
        },
    );
    assert_eq!(report.protocol_errors, 5);
}

/// A train or path request may not ask for more than
/// `MAX_REQUEST_ITERS` iterations: `u64::MAX` off the wire gets a typed
/// error at decode instead of a solve that holds the state lock for good.
/// The raw connection reads under a timeout, so a server that started
/// that solve fails this test rather than hanging it.
#[test]
fn an_unbounded_iteration_count_is_refused_at_decode() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "iters",
        ds_for_server,
        art,
        ServeConfig::default(),
        move |addr, client| {
            let mut raw = raw_connect(addr);
            raw.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let lambda = 0.1;
            for (seq, req) in [
                Request::TrainDelta {
                    lambda,
                    iters: u64::MAX,
                },
                Request::PathPoint {
                    lambda,
                    iters: MAX_REQUEST_ITERS + 1,
                },
            ]
            .into_iter()
            .enumerate()
            {
                req.to_frame(seq as u64).write_to(&mut raw).expect("send");
                let reply = Frame::read_from(&mut raw)
                    .expect("an oversized iteration count must be answered")
                    .expect("reply frame");
                let Ok(Response::Error(msg)) = Response::from_frame(&reply) else {
                    panic!("{req:?} must get a typed error, got {reply:?}");
                };
                assert!(msg.contains("per-request bound"), "{msg}");
            }
            // A second connection's scores stay exact, and the state lock
            // is free: a bounded train delta still answers.
            let mut fresh = ServeClient::connect_default(addr).expect("connect");
            let preds = fresh.score(rows).expect("score");
            assert_eq!(preds.len(), expect.len());
            for (p, e) in preds.iter().zip(&expect) {
                assert_eq!(p.to_bits(), e.to_bits());
            }
            fresh.bye();
            client
                .train_delta(lambda, 8)
                .expect("a bounded train delta");
        },
    );
    assert_eq!(report.protocol_errors, 2);
}

#[test]
fn a_client_pausing_mid_frame_gets_its_exact_score() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "pause",
        ds_for_server,
        art,
        ServeConfig::default(),
        move |addr, _| {
            let mut wire = Vec::new();
            Request::Score { rows }.to_frame(1).encode_into(&mut wire);
            let mut raw = raw_connect(addr);
            // Longer than the server's stop tick, in the middle of the header.
            raw.write_all(&wire[..30]).expect("first part");
            std::thread::sleep(Duration::from_millis(250));
            raw.write_all(&wire[30..]).expect("rest");
            let reply = Frame::read_from(&mut raw)
                .expect("read reply")
                .expect("reply frame");
            let Ok(Response::Scores(preds)) = Response::from_frame(&reply) else {
                panic!("a paused frame must be answered, got {reply:?}");
            };
            assert_eq!(preds.len(), expect.len());
            for (p, e) in preds.iter().zip(&expect) {
                assert_eq!(p.to_bits(), e.to_bits());
            }
        },
    );
    assert_eq!(report.protocol_errors, 0);
}

/// Two requests sent in one `write` reach the server's read buffer
/// together; each is answered, in order, under its own sequence number.
#[test]
fn two_requests_in_one_write_are_answered_in_order() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "pipelined",
        ds_for_server,
        art,
        ServeConfig::default(),
        move |addr, _| {
            let cut = 70;
            let mut wire = Vec::new();
            Request::Score {
                rows: rows[..cut].to_vec(),
            }
            .encode_into(5, &mut wire);
            Request::Score {
                rows: rows[cut..].to_vec(),
            }
            .encode_into(6, &mut wire);
            let mut raw = raw_connect(addr);
            raw.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            raw.write_all(&wire).expect("one write, two requests");
            for (seq, want) in [(5, &expect[..cut]), (6, &expect[cut..])] {
                let reply = Frame::read_from(&mut raw)
                    .expect("read reply")
                    .expect("reply frame");
                assert_eq!(reply.seq, seq);
                let Ok(Response::Scores(preds)) = Response::from_frame(&reply) else {
                    panic!("request {seq} must get its scores, got {reply:?}");
                };
                assert_eq!(preds.len(), want.len());
                for (p, e) in preds.iter().zip(want) {
                    assert_eq!(p.to_bits(), e.to_bits());
                }
            }
        },
    );
    assert_eq!(report.protocol_errors, 0);
}

/// A request and a `Bye` sent in one `write`: the request is answered,
/// then the server closes the connection without counting an error.
#[test]
fn a_request_and_a_bye_in_one_write_are_answered_then_closed() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let expect = ds.a.spmv(&art.x);
    let rows = rows_of(&ds);
    let ds_for_server = ds.clone();
    let report = with_server(
        "andbye",
        ds_for_server,
        art,
        ServeConfig::default(),
        move |addr, _| {
            let mut wire = Vec::new();
            Request::Score { rows }.encode_into(2, &mut wire);
            Frame {
                kind: FrameKind::Bye,
                ..Frame::data(0, 0, 3, &[])
            }
            .encode_into(&mut wire);
            let mut raw = raw_connect(addr);
            raw.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            raw.write_all(&wire).expect("request and bye in one write");
            let reply = Frame::read_from(&mut raw)
                .expect("read reply")
                .expect("reply frame");
            assert_eq!(reply.seq, 2);
            let Ok(Response::Scores(preds)) = Response::from_frame(&reply) else {
                panic!("the request before the bye must be answered, got {reply:?}");
            };
            for (p, e) in preds.iter().zip(&expect) {
                assert_eq!(p.to_bits(), e.to_bits());
            }
            let mut rest = Vec::new();
            raw.read_to_end(&mut rest)
                .expect("the server closes the connection after the bye");
            assert!(rest.is_empty(), "{} bytes after the bye", rest.len());
        },
    );
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn max_requests_stops_the_server() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let rows = rows_of(&ds);
    let scfg = ServeConfig {
        max_requests: Some(3),
        ..Default::default()
    };
    let (addr, server) = spawn_server("maxreq", ds, art, scfg);
    let mut client = ServeClient::connect_default(&addr).expect("connect");
    for _ in 0..3 {
        client.score(rows.clone()).expect("score under the cap");
    }
    let report = within(10, "the capped server", move || server.join());
    let report = report.expect("server thread");
    assert_eq!(report.requests, 3);
    assert_eq!(report.protocol_errors, 0);
    let late = within(10, "a request past the cap", move || {
        client.score(rows).is_err()
    });
    assert!(late, "a request past max_requests must fail, not succeed");
}

#[test]
fn a_request_after_shutdown_fails_fast_instead_of_hanging() {
    let ds = problem();
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &train_cfg());
    let rows = rows_of(&ds);
    let (addr, server) = spawn_server("aftershut", ds, art, ServeConfig::default());
    let mut stopper = ServeClient::connect_default(&addr).expect("connect stopper");
    let mut late = ServeClient::connect_default(&addr).expect("connect late");
    late.score(rows.clone()).expect("score before shutdown");
    stopper.shutdown().expect("shutdown");
    let refused = within(10, "a request after shutdown", move || {
        late.score(rows).is_err()
    });
    assert!(refused, "a request after Shutdown must get an error or EOF");
    within(10, "the stopped server", move || server.join()).expect("server thread");
}
