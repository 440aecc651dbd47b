//! The serving loop: one thread per connection, a published model
//! snapshot for reads, one state lock for writes, and per-request SLO
//! telemetry.
//!
//! Architecture: the accept loop gives each connection its own thread,
//! and that thread decodes, answers and replies to every request the
//! connection sends, so no request crosses a thread on its way to its
//! reply. A score clones the `Arc` of the published model `x` and runs
//! the serial dot chain against it; reads never wait for training.
//! Train-delta and path segments run under one `Mutex<SolverState>`. Its
//! acquisition order is the single mutation order — the *consistency
//! contract*, since both mutate warm state and one order is what keeps a
//! resumed chain bitwise reproducible. A train delta publishes its new
//! `x` before it releases that lock and before its reply is written, so
//! a score that starts after any client has seen a train reply reads
//! that `x`.
//!
//! A connection keeps one netcomm `FrameReader`, one decoded `Request`
//! and one wire buffer for its whole life. A score request therefore
//! costs one `read` and one `write` on the server's side, and once the
//! buffers have grown to the connection's largest request the only
//! allocation it makes is the reply's score vector.

use super::artifact::{dataset_fingerprint, ModelArtifact};
use super::proto::{Request, Response};
use crate::problem::lasso_objective_from_residual;
use crate::prox::Lasso;
use crate::workspace::KernelWorkspace;
use mpisim::ChaosSpec;
use netcomm::frame::{FrameKind, FrameReader};
use netcomm::{Listener, NetError, Stream};
use saco_telemetry::Registry;
use sparsela::io::Dataset;
use sparsela::{CscMatrix, SparseSlice};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xrng::Rng;

/// How often an idle connection and the accept loop look at the stop flag.
const STOP_TICK: Duration = Duration::from_millis(10);

/// Server policy knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Latency SLO per request, milliseconds; responses slower than this
    /// increment `serve.slo.breaches`.
    pub slo_ms: f64,
    /// Default per-segment iteration budget when a train/path request
    /// asks for 0 iterations; `saco serve` keeps it at most
    /// [`super::MAX_REQUEST_ITERS`], the bound on a request's own count.
    pub default_iters: u64,
    /// Optional deterministic straggler injection: each admitted request
    /// draws against `straggle`; stragglers sleep up to `jitter` seconds.
    pub chaos: Option<ChaosSpec>,
    /// Stop after this many requests (None = run until Shutdown).
    pub max_requests: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slo_ms: 250.0,
            default_iters: 512,
            chaos: None,
            max_requests: None,
        }
    }
}

/// End-of-run summary (the registry carries the full `serve.*` taxonomy).
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Requests answered (errors included).
    pub requests: u64,
    /// Malformed frames / refused requests.
    pub protocol_errors: u64,
    /// Responses slower than the SLO.
    pub slo_breaches: u64,
    /// p99 latency over all answered requests, milliseconds.
    pub p99_ms: f64,
}

#[derive(Clone, Default)]
struct Stats {
    latencies_ms: Vec<f64>,
    rows_scored: u64,
    score: u64,
    train: u64,
    path: u64,
    stats_reqs: u64,
    errors: u64,
    slo_breaches: u64,
    cache_hits: u64,
    cache_misses: u64,
    straggled: u64,
}

/// The lock-guarded solver state: the two warm chains (train resume, λ
/// path) and their shared workspace.
struct SolverState {
    csc: CscMatrix,
    artifact: ModelArtifact,
    ws: KernelWorkspace,
    // Train chain: restored from the artifact (iterate + residual bits +
    // replayed RNG), advanced by TrainDelta requests.
    train_x: Vec<f64>,
    train_residual: Vec<f64>,
    train_rng: Option<Rng>,
    train_iters: u64,
    // Path chain: cold start (x = 0, fresh RNG at the artifact seed), so
    // a grid requested largest-λ-first reproduces `lasso_path` bitwise;
    // point k's state seeds point k+1.
    path_x: Vec<f64>,
    path_residual: Vec<f64>,
    path_rng: Rng,
    // λ bits → (objective, nonzeros): an exact repeat is a free hit.
    path_cache: BTreeMap<u64, (f64, usize)>,
}

impl SolverState {
    fn new(ds: &Dataset, artifact: ModelArtifact) -> SolverState {
        let n = ds.a.cols();
        let (train_residual, train_rng) = if artifact.resumable() {
            (
                artifact.residual.clone(),
                Some(crate::exec::replay_sampling(
                    artifact.seed,
                    n,
                    artifact.mu,
                    artifact.sampling,
                    artifact.iters,
                )),
            )
        } else {
            (Vec::new(), None)
        };
        SolverState {
            csc: ds.a.to_csc(),
            train_x: artifact.x.clone(),
            train_residual,
            train_rng,
            train_iters: artifact.iters as u64,
            path_x: vec![0.0; n],
            path_residual: ds.b.iter().map(|v| -v).collect(),
            path_rng: xrng::rng_from_seed(artifact.seed),
            path_cache: BTreeMap::new(),
            ws: KernelWorkspace::new(),
            artifact,
        }
    }

    fn train_delta(&mut self, lambda: f64, iters: u64) -> Result<Response, String> {
        let rng = self
            .train_rng
            .as_mut()
            .ok_or_else(|| format!("family {:?} is not resumable", self.artifact.family))?;
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(format!(
                "train lambda must be finite and nonnegative, got {lambda}"
            ));
        }
        let total_iters = self
            .train_iters
            .checked_add(iters)
            .ok_or_else(|| format!("{iters} more iterations overflow the model's total"))?;
        let cfg = self.artifact.lasso_config(iters as usize);
        let reg = Lasso::new(lambda);
        crate::exec::lasso_family_warm(
            &self.csc,
            &reg,
            &cfg,
            &mut crate::exec::SeqBackend::new(),
            rng,
            &mut self.ws,
            &mut self.train_x,
            &mut self.train_residual,
        );
        self.train_iters = total_iters;
        Ok(Response::Train {
            objective: lasso_objective_from_residual(&self.train_residual, &reg, &self.train_x),
            nonzeros: sparsela::vecops::nnz_count(&self.train_x, 1e-10) as u64,
            total_iters: self.train_iters,
        })
    }

    fn path_point(&mut self, lambda: f64, iters: u64) -> Result<Response, String> {
        if !self.artifact.resumable() {
            return Err(format!(
                "family {:?} has no warm-startable path solver",
                self.artifact.family
            ));
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(format!(
                "path lambda must be finite and positive, got {lambda}"
            ));
        }
        if let Some(&(objective, nonzeros)) = self.path_cache.get(&lambda.to_bits()) {
            return Ok(Response::Path {
                objective,
                nonzeros: nonzeros as u64,
                cached: true,
            });
        }
        let cfg = self.artifact.lasso_config(iters as usize);
        let reg = Lasso::new(lambda);
        crate::exec::lasso_family_warm(
            &self.csc,
            &reg,
            &cfg,
            &mut crate::exec::SeqBackend::new(),
            &mut self.path_rng,
            &mut self.ws,
            &mut self.path_x,
            &mut self.path_residual,
        );
        let objective = lasso_objective_from_residual(&self.path_residual, &reg, &self.path_x);
        let nonzeros = sparsela::vecops::nnz_count(&self.path_x, 1e-10);
        self.path_cache
            .insert(lambda.to_bits(), (objective, nonzeros));
        Ok(Response::Path {
            objective,
            nonzeros: nonzeros as u64,
            cached: false,
        })
    }
}

/// Score `rows` against the model `x`. Each row's indices must strictly
/// increase and stay below `x.len()`; the first row that breaks this
/// refuses the whole request, naming the row and the index.
fn score(x: &[f64], rows: &[(Vec<usize>, Vec<f64>)]) -> Result<Vec<f64>, String> {
    // Sized up front: collecting into a `Result` would regrow it.
    let mut scores = Vec::with_capacity(rows.len());
    for (r, (idx, val)) in rows.iter().enumerate() {
        let mut prev = None;
        for &j in idx {
            if j >= x.len() {
                return Err(format!(
                    "row {r}: feature index {j} out of range (n = {})",
                    x.len()
                ));
            }
            if let Some(p) = prev.filter(|&p| j <= p) {
                return Err(format!(
                    "row {r}: feature index {j} does not follow {p} (indices must strictly increase)"
                ));
            }
            prev = Some(j);
        }
        let slice = SparseSlice {
            indices: idx,
            values: val,
        };
        scores.push(slice.dot_dense(x));
    }
    Ok(scores)
}

/// Deterministic straggler draw for admitted request number `k`: a pure
/// function of `(chaos.seed, k)`, so a replay injects the same stalls.
fn straggle_delay(chaos: &ChaosSpec, k: u64) -> Option<Duration> {
    let mut rng =
        xrng::rng_from_seed(chaos.seed ^ 0x5E87_AC4E ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if rng.next_f64() < chaos.straggle {
        let frac = rng.next_f64();
        Some(Duration::from_secs_f64(chaos.jitter.max(0.0) * frac))
    } else {
        None
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// What every connection thread shares.
struct Shared<'a> {
    cfg: &'a ServeConfig,
    /// Why the model cannot be scored linearly, if it cannot.
    unscorable: Option<String>,
    /// The published scoring model: replaced, never mutated, when a train
    /// delta commits.
    model: Mutex<Arc<Vec<f64>>>,
    state: Mutex<SolverState>,
    stats: Mutex<Stats>,
    stop: AtomicBool,
    /// Requests admitted so far; the straggle draw index and the
    /// `max_requests` count.
    admitted: AtomicU64,
}

impl Shared<'_> {
    /// Answer one decoded request on the calling connection's thread.
    fn answer(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let k = self.admitted.fetch_add(1, Ordering::SeqCst);
        if self.stop.load(Ordering::SeqCst) || self.cfg.max_requests.is_some_and(|m| k >= m) {
            return Response::Error("server shutting down".to_string());
        }
        let straggle = self.cfg.chaos.as_ref().and_then(|c| straggle_delay(c, k));
        if let Some(delay) = straggle {
            std::thread::sleep(delay);
        }
        let iters = |i: u64| if i == 0 { self.cfg.default_iters } else { i };
        let resp = match req {
            Request::Score { rows } => match &self.unscorable {
                Some(why) => Response::Error(why.clone()),
                None => {
                    let x = Arc::clone(&self.model.lock().expect("model lock"));
                    score(&x, rows).map_or_else(Response::Error, Response::Scores)
                }
            },
            Request::TrainDelta { lambda, iters: i } => {
                let mut state = self.state.lock().expect("state lock");
                let resp = state.train_delta(*lambda, iters(*i));
                if resp.is_ok() {
                    *self.model.lock().expect("model lock") = Arc::new(state.train_x.clone());
                }
                resp.unwrap_or_else(Response::Error)
            }
            Request::PathPoint { lambda, iters: i } => self
                .state
                .lock()
                .expect("state lock")
                .path_point(*lambda, iters(*i))
                .unwrap_or_else(Response::Error),
            Request::Stats => {
                // Copy under the lock, sort and publish after it: every
                // other request's bookkeeping takes this lock.
                let copy = self.stats.lock().expect("stats lock").clone();
                let mut snapshot = Registry::new();
                publish(&mut snapshot, copy, self.cfg);
                Response::Stats(saco_telemetry::run_report_json(&snapshot))
            }
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                Response::Stats("bye".to_string())
            }
        };

        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut st = self.stats.lock().expect("stats lock");
        match (req, &resp) {
            (Request::Score { .. }, Response::Scores(p)) => {
                st.score += 1;
                st.rows_scored += p.len() as u64;
            }
            (Request::Score { .. }, _) => st.score += 1,
            (Request::TrainDelta { .. }, _) => st.train += 1,
            (Request::PathPoint { .. }, Response::Path { cached, .. }) => {
                st.path += 1;
                if *cached {
                    st.cache_hits += 1;
                } else {
                    st.cache_misses += 1;
                }
            }
            (Request::PathPoint { .. }, _) => st.path += 1,
            (Request::Stats, _) => st.stats_reqs += 1,
            (Request::Shutdown, _) => {}
        }
        if matches!(resp, Response::Error(_)) {
            st.errors += 1;
        }
        st.straggled += u64::from(straggle.is_some());
        st.latencies_ms.push(ms);
        if ms > self.cfg.slo_ms {
            st.slo_breaches += 1;
        }
        drop(st);
        if self.cfg.max_requests.is_some_and(|m| k + 1 >= m) {
            self.stop.store(true, Ordering::SeqCst);
        }
        resp
    }
}

/// A connection's read side. Its socket timeout is only the stop tick:
/// an expired wait is retried until the server stops, so a client that
/// pauses in the middle of a frame resumes where it left off.
struct Conn<'a> {
    stream: Stream,
    stop: &'a AtomicBool,
}

impl Read for Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !self.stop.load(Ordering::SeqCst) => {}
                r => return r,
            }
        }
    }
}

fn connection_loop(stream: Stream, sh: &Shared) {
    let _ = stream.set_io_timeout(Some(STOP_TICK));
    let mut reader = FrameReader::new(Conn {
        stream,
        stop: &sh.stop,
    });
    // The connection's decoded request (its row buffers are refilled in
    // place) and its outgoing frame.
    let mut req = Request::Stats;
    let mut wire = Vec::new();
    while !sh.stop.load(Ordering::SeqCst) {
        let frame = match reader.read_next() {
            Ok(Ok(f)) => f,
            Ok(Err(_)) => {
                sh.stats.lock().expect("stats lock").errors += 1;
                return;
            }
            Err(_) => return, // EOF / reset: client left, or the server stopped
        };
        if frame.kind == FrameKind::Bye {
            return;
        }
        let seq = frame.seq;
        let resp = match req.decode_over(frame) {
            Ok(()) => sh.answer(&req),
            Err(e) => {
                sh.stats.lock().expect("stats lock").errors += 1;
                Response::Error(e.to_string())
            }
        };
        wire.clear();
        resp.encode_into(seq, &mut wire);
        if reader.get_mut().stream.write_all(&wire).is_err() {
            return;
        }
    }
}

/// Publish `st` into `reg` and return its p99 latency. It takes the
/// copy it sorts.
fn publish(reg: &mut Registry, mut st: Stats, cfg: &ServeConfig) -> f64 {
    reg.counter_add("serve.requests.score", st.score);
    reg.counter_add("serve.requests.train_delta", st.train);
    reg.counter_add("serve.requests.path_point", st.path);
    reg.counter_add("serve.requests.stats", st.stats_reqs);
    reg.counter_add("serve.requests.errors", st.errors);
    reg.counter_add("serve.rows_scored", st.rows_scored);
    reg.counter_add("serve.slo.breaches", st.slo_breaches);
    reg.counter_add("serve.cache.hits", st.cache_hits);
    reg.counter_add("serve.cache.misses", st.cache_misses);
    reg.counter_add("serve.chaos.straggled", st.straggled);
    reg.gauge_set("serve.slo_ms", cfg.slo_ms);
    // Observed in arrival order, before the sort: the sum is a chain.
    reg.register_histogram(
        "serve.latency_ms",
        &[0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0],
    );
    for &v in &st.latencies_ms {
        reg.observe("serve.latency_ms", v);
    }
    let sorted = &mut st.latencies_ms;
    sorted.sort_by(f64::total_cmp);
    let p99 = percentile(sorted, 99.0);
    reg.gauge_set("serve.latency.p50_ms", percentile(sorted, 50.0));
    reg.gauge_set("serve.latency.p95_ms", percentile(sorted, 95.0));
    reg.gauge_set("serve.latency.p99_ms", p99);
    reg.gauge_set(
        "serve.latency.max_ms",
        sorted.last().copied().unwrap_or(0.0),
    );
    p99
}

/// Run the server until `Shutdown` (or `max_requests`), publishing the
/// `serve.*` taxonomy into `registry` on the way out.
///
/// The artifact must fingerprint-match `ds` when it is resumable: warm
/// chains continued against different data would silently produce
/// garbage, so that is a refused startup, not a runtime surprise.
pub fn serve(
    listener: &Listener,
    ds: &Dataset,
    artifact: ModelArtifact,
    cfg: &ServeConfig,
    registry: &mut Registry,
) -> Result<ServeReport, NetError> {
    let n = ds.a.cols();
    if artifact.n != n {
        return Err(NetError::Protocol(format!(
            "artifact is for n = {}, dataset has n = {n}",
            artifact.n
        )));
    }
    if artifact.resumable() && artifact.fingerprint != dataset_fingerprint(ds) {
        return Err(NetError::Protocol(
            "artifact fingerprint does not match the dataset; refusing to resume training"
                .to_string(),
        ));
    }
    let shared = Shared {
        cfg,
        unscorable: (artifact.x.len() != n).then(|| {
            format!(
                "family {:?} model has length {}, not the feature count {n} — \
                 it cannot be scored linearly",
                artifact.family,
                artifact.x.len()
            )
        }),
        model: Mutex::new(Arc::new(artifact.x.clone())),
        state: Mutex::new(SolverState::new(ds, artifact)),
        stats: Mutex::new(Stats::default()),
        stop: AtomicBool::new(false),
        admitted: AtomicU64::new(0),
    };

    std::thread::scope(|sc| {
        while !shared.stop.load(Ordering::SeqCst) {
            match listener.accept_deadline(Instant::now() + STOP_TICK) {
                Ok(stream) => {
                    let shared = &shared;
                    sc.spawn(move || connection_loop(stream, shared));
                }
                Err(NetError::Timeout { .. }) => continue,
                Err(e) => {
                    shared.stop.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        }
        Ok(())
    })?;

    let st = shared.stats.into_inner().expect("stats lock");
    let (requests, protocol_errors, slo_breaches) =
        (st.latencies_ms.len() as u64, st.errors, st.slo_breaches);
    Ok(ServeReport {
        requests,
        protocol_errors,
        slo_breaches,
        p99_ms: publish(registry, st, cfg),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggle_draws_are_deterministic_and_rate_bounded() {
        let chaos = ChaosSpec {
            straggle: 0.25,
            jitter: 0.010,
            ..Default::default()
        };
        let a: Vec<_> = (0..400).map(|k| straggle_delay(&chaos, k)).collect();
        let b: Vec<_> = (0..400).map(|k| straggle_delay(&chaos, k)).collect();
        assert_eq!(a, b, "chaos draws must replay identically");
        let hit = a.iter().flatten().count();
        assert!(hit > 40 && hit < 180, "~25% straggle rate, got {hit}/400");
        assert!(a
            .iter()
            .flatten()
            .all(|d| *d <= Duration::from_secs_f64(0.010)));
    }

    #[test]
    fn published_latencies_are_the_exact_nearest_rank_percentiles() {
        // Arrival order is not sorted order; 200 samples put p50, p95
        // and p99 on distinct ranks.
        let latencies: Vec<f64> = (0..200u32)
            .map(|k| f64::from((k * 37) % 200) * 0.25 + 0.125)
            .collect();
        let st = Stats {
            latencies_ms: latencies.clone(),
            ..Stats::default()
        };
        let mut reg = Registry::new();
        let p99 = publish(&mut reg, st, &ServeConfig::default());
        // Nearest rank on the sorted samples: ⌈p·200/100⌉-th smallest.
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        for (p, key) in [(50, "p50"), (95, "p95"), (99, "p99")] {
            let want = sorted[p * 2 - 1];
            assert_eq!(reg.gauge(&format!("serve.latency.{key}_ms")), Some(want));
        }
        assert_eq!(p99, sorted[197]);
        assert_eq!(reg.gauge("serve.latency.max_ms"), Some(sorted[199]));
        let h = &reg.histograms()["serve.latency_ms"];
        let sum = latencies.iter().fold(0.0, |acc, v| acc + v);
        assert_eq!((h.total(), h.sum().to_bits()), (200, sum.to_bits()));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
