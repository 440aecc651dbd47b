//! `serve_mixed`: the in-process `serve::serve` loop on a Unix socket
//! (chaos off), driven **closed-loop** by two client connections — each
//! sends its next request only after the previous reply. 49 of every 50
//! requests are score batches of 32 dataset rows (reads); every 50th is an
//! update (writes): client 0 resumes training for 64 iterations, client 1
//! asks for a λ-path point over a cycle of four λs. Reads and writes meet
//! on the single state-owning worker, so a scoring fast path that starves
//! updates — or an update that head-of-line-blocks scores — shows as one
//! latency improving and the other not. Pinned to one CPU.

use super::solve::lasso_cfg;
use super::{round, run_reps, trace_overhead, Ctx, Outcome, SETUP_REPS_COSTLY};
use crate::json::Json;
use crate::replay;
use crate::stats;
use datagen::PaperDataset;
use netcomm::frame::Frame;
use saco::prox::Lasso;
use saco::serve::{
    serve, Addr, Listener, ModelArtifact, Request, Response, ServeClient, ServeConfig,
};
use saco_telemetry::Registry;
use sparsela::io::Dataset;
use std::sync::mpsc;
use std::time::Instant;

const CLIENTS: usize = 2;
const BATCH_ROWS: usize = 32;
/// One update per this many requests on each connection.
const CYCLE: usize = 50;
/// Distinct pre-built score requests per connection, cycled.
const POOL: usize = 64;
const TRAIN_ITERS: usize = 20_000;
const DELTA_ITERS: u64 = 64;
const PATH_LAMBDAS: [f64; 4] = [0.4, 0.2, 0.1, 0.05];
/// Requests per connection per burst.
const BURST: usize = 40_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Score,
    Update,
}

/// One connection's view of one burst.
struct ClientBurst {
    wall: f64,
    /// `(kind, latency in ms)` per request, in send order.
    latencies: Vec<(Kind, f64)>,
    failures: Vec<String>,
}

fn score_request(ds: &Dataset, client: usize, slot: usize) -> (Request, Vec<usize>) {
    let m = ds.a.rows();
    let rows: Vec<usize> = (0..BATCH_ROWS)
        .map(|j| (client * 7919 + slot * 613 + j * 97) % m)
        .collect();
    let req = Request::Score {
        rows: rows
            .iter()
            .map(|&i| {
                let r = ds.a.row(i);
                (r.indices.to_vec(), r.values.to_vec())
            })
            .collect(),
    };
    (req, rows)
}

#[derive(Clone, Copy)]
enum Cmd {
    /// Score every pooled request once and compare against the local
    /// row·x, bitwise. Only valid before the first update.
    Verify,
    Burst(usize),
    Stop,
}

fn client_loop(
    id: usize,
    addr: &Addr,
    ds: &Dataset,
    x: &[f64],
    lambda: f64,
    cmds: mpsc::Receiver<Cmd>,
    replies: mpsc::Sender<Result<ClientBurst, String>>,
) {
    let mut client = match ServeClient::connect_default(addr) {
        Ok(c) => c,
        Err(e) => {
            let _ = replies.send(Err(format!("client {id}: connect: {e}")));
            return;
        }
    };
    let pool: Vec<(Request, Vec<usize>)> = (0..POOL).map(|s| score_request(ds, id, s)).collect();
    let mut sent = 0usize;
    while let Ok(cmd) = cmds.recv() {
        let mut burst = ClientBurst {
            wall: 0.0,
            latencies: Vec::new(),
            failures: Vec::new(),
        };
        let t_burst = Instant::now();
        match cmd {
            Cmd::Stop => break,
            Cmd::Verify => {
                for (req, rows) in &pool {
                    let t0 = Instant::now();
                    let resp = client.call(req);
                    burst
                        .latencies
                        .push((Kind::Score, t0.elapsed().as_secs_f64() * 1e3));
                    let ok = matches!(&resp, Ok(Response::Scores(p)) if p.len() == rows.len()
                    && p.iter().zip(rows).all(|(v, &i)| {
                        v.to_bits() == ds.a.row(i).dot_dense(x).to_bits()
                    }));
                    if !ok {
                        burst
                            .failures
                            .push(format!("client {id}: score differs from the local row·x"));
                    }
                }
            }
            Cmd::Burst(n) => {
                burst.latencies.reserve(n);
                for _ in 0..n {
                    let update = sent % CYCLE == CYCLE - 1;
                    let turn = sent / CYCLE;
                    let path = Request::PathPoint {
                        lambda: PATH_LAMBDAS[turn % PATH_LAMBDAS.len()],
                        iters: DELTA_ITERS,
                    };
                    let train = Request::TrainDelta {
                        lambda,
                        iters: DELTA_ITERS,
                    };
                    let req = match (update, id) {
                        (false, _) => &pool[sent % POOL].0,
                        (true, 0) => &train,
                        (true, _) => &path,
                    };
                    sent += 1;
                    let t0 = Instant::now();
                    let resp = client.call(req);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    // Checked after the latency timestamp.
                    let ok = match (&resp, update) {
                        (Ok(Response::Scores(p)), false) => {
                            p.len() == BATCH_ROWS && p.iter().all(|v| v.is_finite())
                        }
                        (Ok(Response::Train { objective, .. }), true)
                        | (Ok(Response::Path { objective, .. }), true) => objective.is_finite(),
                        _ => false,
                    };
                    if !ok {
                        burst
                            .failures
                            .push(format!("client {id}: request {sent} got {resp:?}"));
                    }
                    burst
                        .latencies
                        .push((if update { Kind::Update } else { Kind::Score }, ms));
                }
            }
        }
        burst.wall = t_burst.elapsed().as_secs_f64();
        if replies.send(Ok(burst)).is_err() {
            break;
        }
    }
    client.bye();
}

/// Start a server on `addr`, connect one client, shut the server down.
fn serve_round_trip(addr: &Addr, ds: &Dataset, artifact: ModelArtifact) -> Result<(), String> {
    let listener = Listener::bind(addr).map_err(|e| e.to_string())?;
    std::thread::scope(|sc| {
        let server = sc.spawn(|| {
            serve(
                &listener,
                ds,
                artifact,
                &ServeConfig::default(),
                &mut Registry::new(),
            )
        });
        let stop = ServeClient::connect_default(addr).and_then(|mut c| c.shutdown());
        let served = server.join().map_err(|_| "server panicked".to_string())?;
        stop.and(served.map(|_| ())).map_err(|e| e.to_string())
    })
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = lasso_cfg(8, 16, TRAIN_ITERS);
    let addr = Addr::Unix(ctx.scratch.path("serve.sock"));
    let (mut datagen_s, mut train_s, mut start_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..ctx.args.setup_reps(SETUP_REPS_COSTLY) {
        let id = ctx.rec.enter("setup");
        let (ds, t) = replay::timed(|| PaperDataset::News20.generate(4.0, ctx.args.seed).dataset);
        datagen_s.push(t);
        let (artifact, t) = replay::timed(|| {
            ModelArtifact::train_lasso(&ds, &Lasso::new(cfg.lambda), cfg.lambda, &cfg)
        });
        train_s.push(t);
        let (started, t) = replay::timed(|| serve_round_trip(&addr, &ds, artifact.clone()));
        started?;
        start_s.push(t);
        ctx.rec.exit(id);
        out.setup_s.push(ctx.rec.secs(id));
        inputs = Some((ds, artifact));
    }
    let (ds, artifact) = inputs.expect("at least one set-up rep");
    let x = artifact.x.clone();
    let per_client = ctx.args.scaled(BURST, CYCLE);
    out.note("rows", Json::Num(ds.a.rows() as f64));
    out.note("cols", Json::Num(ds.a.cols() as f64));
    out.note("nnz", Json::Num(ds.a.nnz() as f64));
    out.note("clients", Json::Num(CLIENTS as f64));
    out.note("loop", Json::Str("closed".to_string()));
    out.note(
        "requests_per_burst",
        Json::Num((per_client * CLIENTS) as f64),
    );
    out.note("batch_rows", Json::Num(BATCH_ROWS as f64));

    let listener = Listener::bind(&addr).map_err(|e| e.to_string())?;
    let mut registry = Registry::new();
    // Client-side latencies: pooled over the run for the tail and the
    // sample counts, and per burst for the three end-to-end percentiles.
    let mut score_ms: Vec<f64> = Vec::new();
    let mut update_ms: Vec<f64> = Vec::new();
    let (mut score_p50, mut score_p95, mut update_p50) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_sums: Vec<(f64, f64, f64)> = Vec::new();
    let served = std::thread::scope(|sc| -> Result<_, String> {
        let server = sc.spawn(|| {
            serve(
                &listener,
                &ds,
                artifact,
                &ServeConfig::default(),
                &mut registry,
            )
        });
        let (mut cmd_tx, mut reply_rx) = (Vec::new(), Vec::new());
        for id in 0..CLIENTS {
            let (ctx_tx, ctx_rx) = mpsc::channel();
            let (rep_tx, rep_rx) = mpsc::channel();
            cmd_tx.push(ctx_tx);
            reply_rx.push(rep_rx);
            let (addr, ds, x) = (&addr, &ds, x.as_slice());
            sc.spawn(move || client_loop(id, addr, ds, x, cfg.lambda, ctx_rx, rep_tx));
        }
        let tell_all = |cmd: Cmd| round(&cmd_tx, &reply_rx, cmd);
        // Scores before the first update equal the local row·x bitwise;
        // then one untimed burst fills the λ-path cache and warms the
        // train chain so every timed burst sees the same server.
        let tally = |bursts: &[ClientBurst], out: &mut Outcome| {
            for b in bursts {
                out.attempted += b.latencies.len() as u64;
                out.failed += b.failures.len() as u64;
                out.failures.extend(b.failures.iter().take(3).cloned());
            }
        };
        let run = (|| -> Result<_, String> {
            tally(&tell_all(Cmd::Verify)?, &mut out);
            tally(&tell_all(Cmd::Burst(per_client))?, &mut out);
            run_reps(&ctx.args, &mut ctx.rec, |traced| {
                let bursts = tell_all(Cmd::Burst(per_client))?;
                tally(&bursts, &mut out);
                let of = |k: Kind| -> Vec<f64> {
                    let all = bursts.iter().flat_map(|b| &b.latencies);
                    stats::sorted(&all.filter(|l| l.0 == k).map(|l| l.1).collect::<Vec<_>>())
                };
                let (scores, updates) = (of(Kind::Score), of(Kind::Update));
                score_p50.push(stats::percentile_sorted(&scores, 50.0));
                score_p95.push(stats::percentile_sorted(&scores, 95.0));
                update_p50.push(stats::percentile_sorted(&updates, 50.0));
                score_ms.extend(scores);
                update_ms.extend(updates);
                if traced {
                    // The slower connection sets the burst's wall; its
                    // request latencies are that wall's layer rows.
                    let slow = bursts
                        .iter()
                        .max_by(|a, b| a.wall.total_cmp(&b.wall))
                        .expect("two clients");
                    let sum = |k: Kind| -> f64 {
                        slow.latencies
                            .iter()
                            .filter(|l| l.0 == k)
                            .map(|l| l.1 * 1e-3)
                            .sum()
                    };
                    traced_sums.push((slow.wall, sum(Kind::Score), sum(Kind::Update)));
                }
                Ok((bursts.iter().map(|b| b.wall).fold(0.0, f64::max), ()))
            })
        })();
        for tx in &cmd_tx {
            let _ = tx.send(Cmd::Stop);
        }
        let stop = ServeClient::connect_default(&addr).and_then(|mut c| c.shutdown());
        let report = server.join().map_err(|_| "server panicked".to_string())?;
        stop.map_err(|e| format!("shutdown: {e}"))?;
        Ok((run?, report.map_err(|e| e.to_string())?))
    });
    let (reps, report) = served?;
    out.measured(&reps);
    out.attempt(if report.protocol_errors == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} protocol errors on the server",
            report.protocol_errors
        ))
    });

    out.note("score_samples", Json::Num(score_ms.len() as f64));
    out.note("update_samples", Json::Num(update_ms.len() as f64));

    if ctx.args.trace {
        trace_overhead(&mut out, &reps);
        let counter = |k: &str| registry.counter(k) as f64;
        let gauge = |k: &str| registry.gauge(k).unwrap_or(0.0);
        out.layer(
            "serve.requests",
            counter("serve.requests.score")
                + counter("serve.requests.train_delta")
                + counter("serve.requests.path_point"),
        );
        out.layer("serve.batches", counter("serve.batches"));
        out.layer("serve.rows_scored", counter("serve.rows_scored"));
        out.layer("serve.batch_size_max", gauge("serve.batch.size.max"));
        out.layer("serve.queue_depth_max", gauge("serve.queue.depth.max"));
        out.layer("serve.cache_hits", counter("serve.cache.hits"));
        out.layer("serve.cache_misses", counter("serve.cache.misses"));
        out.layer("serve.errors", counter("serve.requests.errors"));
        out.layer("serve.server_p50_ms", gauge("serve.latency.p50_ms"));
        out.layer("serve.server_p99_ms", gauge("serve.latency.p99_ms"));
        // The three end-to-end latencies again, where the acceptance
        // driver's traced runs can see them.
        out.layer("serve.score_p50_ms", stats::median(&score_p50));
        out.layer("serve.score_p95_ms", stats::median(&score_p95));
        out.layer("serve.update_p50_ms", stats::median(&update_p50));
        out.layer("serve.score_samples", score_ms.len() as f64);
        out.layer("serve.update_samples", update_ms.len() as f64);
        // The client tail: pooled over every burst, and still too loose
        // (±10 %) for the end-to-end set.
        let score_sorted = stats::sorted(&score_ms);
        out.layer(
            "serve.score_p99_ms",
            stats::percentile_sorted(&score_sorted, 99.0),
        );
        // Client minus server median: the socket, the frame codec and the
        // reader→worker queue hand-off.
        out.layer(
            "serve.handoff_p50_ms",
            stats::percentile_sorted(&score_sorted, 50.0) - gauge("serve.latency.p50_ms"),
        );
        // The least disturbed traced burst: (slow client's wall, Σ score
        // latencies, Σ update latencies).
        let best = traced_sums
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .copied()
            .unwrap_or_default();
        out.layer("serve.score_s", best.1);
        out.layer("serve.update_s", best.2);

        // Floors, replayed with nothing in between: the request codec on
        // one pooled score request, and the 32 row·x dots it asks for.
        let id = ctx.rec.enter("replay");
        let (req, rows) = score_request(&ds, 0, 0);
        let n = if ctx.args.quick { 200 } else { 2000 };
        let mut wire = Vec::new();
        let (_, t) = replay::timed(|| {
            for seq in 0..n {
                wire.clear();
                req.to_frame(seq).encode_into(&mut wire);
            }
        });
        out.layer("serve.proto_encode_us", t / n as f64 * 1e6);
        let frame: Frame = req.to_frame(0);
        let (_, t) = replay::timed(|| {
            for _ in 0..n {
                std::hint::black_box(Request::from_frame(std::hint::black_box(&frame)).is_ok());
            }
        });
        out.layer("serve.proto_decode_us", t / n as f64 * 1e6);
        let (_, t) = replay::timed(|| {
            for _ in 0..n {
                for &i in &rows {
                    std::hint::black_box(ds.a.row(i).dot_dense(std::hint::black_box(&x)));
                }
            }
        });
        out.layer("serve.score_floor_us", t / n as f64 * 1e6);
        ctx.rec.exit(id);

        out.layer("setup.datagen_s", stats::median(&datagen_s));
        out.layer("setup.artifact_train_s", stats::median(&train_s));
        out.layer("setup.serve_start_s", stats::median(&start_s));
        // The slower connection's own wall, so its rows add up: what is
        // left is the client's request bookkeeping between calls. The rows
        // are sub-intervals of that wall, so the issue's plain −2 % holds.
        out.close_table(&ctx.args, best.0, 0.02);
    }
    out.latencies = vec![
        ("score_p50_ms", score_p50),
        ("score_p95_ms", score_p95),
        ("update_p50_ms", update_p50),
    ];
    Ok(out)
}
