//! Tail-latency drill for `saco serve`: mixed score/train/path load with
//! deterministic chaos stragglers, published into `BENCH_baseline.json`.
//!
//! Two modes:
//!
//! * **Standalone** (default): boot an in-process server on a Unix
//!   socket, train a resumable artifact, then fire concurrent clients at
//!   it — score batches head-of-line, with train-delta and λ-path
//!   requests interleaved so the one-state-lock consistency contract is
//!   exercised under contention. Chaos stragglers (`straggle = 0.15`,
//!   up to 2 ms of injected sleep) make the p99/p50 gap a real number
//!   rather than scheduler noise. Server-side `serve.*` gauges and the
//!   client-observed percentiles both land under `serve.bench.*` in the
//!   baseline.
//! * **`--attach <addr>`** (the CI `serve-smoke` job): connect to an
//!   already-running `saco serve` process, send a short score burst with
//!   synthetic rows, and print the observed latencies. Exits non-zero on
//!   any protocol error; never touches the baseline.
//!
//! `SACO_QUICK=1` shrinks the client count and per-client request budget
//! ~4× for smoke runs.

use datagen::{planted_regression, uniform_sparse};
use mpisim::ChaosSpec;
use saco::prox::Lasso;
use saco::serve::{serve, Addr, Listener, ModelArtifact, ServeClient, ServeConfig, ServeReport};
use saco::LassoConfig;
use saco_bench::baseline::Baseline;
use saco_bench::{quick_mode, shown};
use saco_telemetry::Registry;
use std::time::Instant;

/// Synthetic rows to score: deterministic, nonzero, within `cols`.
fn synth_rows(cols: usize, count: usize, seed: u64) -> Vec<(Vec<usize>, Vec<f64>)> {
    let mut rng = xrng::rng_from_seed(seed);
    (0..count)
        .map(|_| {
            let nnz = 1 + (rng.next_u64() % 8) as usize;
            let mut idx: Vec<usize> = (0..nnz).map(|_| (rng.next_u64() as usize) % cols).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals = idx.iter().map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            (idx, vals)
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.saturating_sub(1).min(sorted_ms.len() - 1)]
}

/// `--attach`: burst an already-running server and report what we saw.
fn attach(addr_str: &str, requests: usize) -> Result<(), String> {
    let addr = Addr::parse(addr_str).map_err(|e| format!("--attach {addr_str}: {e}"))?;
    let mut client =
        ServeClient::connect_default(&addr).map_err(|e| format!("connect {addr_str}: {e}"))?;
    let rows = synth_rows(4, 16, 77);
    let mut lat = Vec::with_capacity(requests);
    for k in 0..requests {
        let t0 = Instant::now();
        let preds = client
            .score(rows.clone())
            .map_err(|e| format!("score burst {k}: {e}"))?;
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        if preds.len() != rows.len() {
            return Err(format!(
                "burst {k}: {} preds for {} rows",
                preds.len(),
                rows.len()
            ));
        }
        if preds.iter().any(|p| !p.is_finite()) {
            return Err(format!("burst {k}: non-finite prediction"));
        }
    }
    client.bye();
    lat.sort_by(|a, b| a.total_cmp(b));
    println!(
        "attach burst: {requests} score batches ok | p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms",
        percentile(&lat, 50.0),
        percentile(&lat, 99.0),
        percentile(&lat, 100.0),
    );
    Ok(())
}

/// Standalone drill: returns (server report, registry, client latencies ms).
fn drill(clients: usize, batches: usize) -> (ServeReport, Registry, Vec<f64>) {
    let a = uniform_sparse(400, 120, 0.15, 21);
    let ds = planted_regression(a, 8, 0.05, 21).dataset;
    let cfg = LassoConfig {
        mu: 4,
        s: 8,
        lambda: 0.1,
        seed: 7,
        max_iters: 160,
        trace_every: 0,
        ..Default::default()
    };
    let art = ModelArtifact::train_lasso(&ds, &Lasso::new(0.1), 0.1, &cfg);
    let lambdas: Vec<f64> = (0..4).map(|k| 0.1 * 0.7f64.powi(k)).collect();

    let sock = std::env::temp_dir().join(format!("saco-serve-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let addr = Addr::Unix(sock);
    let listener = Listener::bind(&addr).expect("bind serve_bench socket");
    let scfg = ServeConfig {
        slo_ms: 50.0,
        default_iters: 64,
        chaos: Some(ChaosSpec {
            seed: 4242,
            jitter: 2e-3, // stragglers sleep up to 2 ms
            straggle: 0.15,
            ..Default::default()
        }),
        ..Default::default()
    };
    let ds_server = ds.clone();
    let server = std::thread::spawn(move || {
        let mut reg = Registry::new();
        let rep = serve(&listener, &ds_server, art, &scfg, &mut reg).expect("serve run");
        (rep, reg)
    });

    let cols = ds.a.cols();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let lambdas = lambdas.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect_default(&addr).expect("connect");
                let rows = synth_rows(cols, 24, 1000 + c as u64);
                let mut lat = Vec::with_capacity(batches);
                for k in 0..batches {
                    let t0 = Instant::now();
                    match k % 6 {
                        // Mostly score traffic, with warm-state mutations
                        // interleaved: client 0 trains, everyone walks λs.
                        4 if c == 0 => {
                            client.train_delta(0.1, 8).expect("train delta");
                        }
                        5 => {
                            let lam = lambdas[k % lambdas.len()];
                            client.path_point(lam, 32).expect("path point");
                        }
                        _ => {
                            let preds = client.score(rows.clone()).expect("score");
                            assert_eq!(preds.len(), rows.len());
                        }
                    }
                    lat.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                client.bye();
                lat
            })
        })
        .collect();
    let mut client_lat: Vec<f64> = Vec::new();
    for w in workers {
        client_lat.extend(w.join().expect("client thread"));
    }

    // One more client just to shut the server down.
    let mut closer = ServeClient::connect_default(&addr).expect("connect closer");
    closer.shutdown().expect("shutdown");
    let (report, registry) = server.join().expect("server thread");
    client_lat.sort_by(|a, b| a.total_cmp(b));
    (report, registry, client_lat)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--attach") {
        let addr = args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("usage: serve_bench [--attach <addr>] [--requests N]");
            std::process::exit(2);
        });
        let requests = args
            .iter()
            .position(|a| a == "--requests")
            .and_then(|j| args.get(j + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(32);
        if let Err(e) = attach(addr, requests) {
            eprintln!("serve_bench --attach failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let (clients, batches) = if quick_mode() { (2, 18) } else { (6, 60) };
    println!("serve_bench: {clients} clients × {batches} requests, chaos straggle=0.15 jitter=2ms");
    let (report, registry, lat) = drill(clients, batches);

    let g = |k: &str| registry.gauge(k).unwrap_or(0.0);
    println!(
        "server: {} requests | p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms | {} SLO breaches | {} straggled",
        report.requests,
        g("serve.latency.p50_ms"),
        g("serve.latency.p95_ms"),
        g("serve.latency.p99_ms"),
        report.slo_breaches,
        registry.counter("serve.chaos.straggled"),
    );
    println!(
        "client: p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms | max {:.3} ms",
        percentile(&lat, 50.0),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
        percentile(&lat, 100.0),
    );
    assert_eq!(report.protocol_errors, 0, "drill must be protocol-clean");

    let mut base = Baseline::load_repo();
    base.set("serve.bench.requests", report.requests as f64);
    base.set("serve.bench.slo_breaches", report.slo_breaches as f64);
    base.set("serve.bench.server.p50_ms", g("serve.latency.p50_ms"));
    base.set("serve.bench.server.p95_ms", g("serve.latency.p95_ms"));
    base.set("serve.bench.server.p99_ms", g("serve.latency.p99_ms"));
    base.set("serve.bench.server.max_ms", g("serve.latency.max_ms"));
    base.set("serve.bench.client.p50_ms", percentile(&lat, 50.0));
    base.set("serve.bench.client.p99_ms", percentile(&lat, 99.0));
    base.set(
        "serve.bench.chaos.straggled",
        registry.counter("serve.chaos.straggled") as f64,
    );
    base.set(
        "serve.bench.rows_scored",
        registry.counter("serve.rows_scored") as f64,
    );
    let path = base.write();
    println!("baseline updated: {}", shown(&path));
}
