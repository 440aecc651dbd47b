//! `saco-par`: a zero-dependency scoped worker pool with a deterministic
//! tiled-reduction API.
//!
//! The SA solvers' equivalence guarantees (SA ≡ classical, seq ≡ virtual
//! cluster, streamed ≡ in-memory) rest on *bitwise* reproducibility, so
//! intra-rank parallelism must never perturb numerics. Every primitive here enforces
//! the same contract:
//!
//! 1. work is split into **tiles** whose per-entry arithmetic is exactly
//!    the serial kernel's (no partial sums are ever combined across tiles
//!    in scheduling order);
//! 2. tile results are **merged in fixed tile order**, regardless of which
//!    worker computed which tile or when it finished.
//!
//! Under that contract the thread count is a pure throughput knob: any
//! `nthreads` (including 1) produces byte-identical output, which is what
//! the proptests in `sparsela` pin. See `docs/PERFORMANCE.md`.
//!
//! This crate depends only on `std` (the build environment is offline).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// Global worker count: 0 = unset (resolve from `SACO_THREADS`, else 1).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The configured worker count for pooled kernels.
///
/// Resolution order: the last [`set_threads`] call, else the `SACO_THREADS`
/// environment variable, else 1 (serial). The default is deliberately
/// serial: parallelism is opt-in via `--threads` / `SACO_THREADS`, and
/// results do not depend on the choice.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = std::env::var("SACO_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1);
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Set the global worker count (clamped to at least 1).
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pool utilization accounting
// ---------------------------------------------------------------------------

static REGIONS: AtomicU64 = AtomicU64::new(0);
static TILES: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);
static WALL_NANOS: AtomicU64 = AtomicU64::new(0);

/// Cumulative pool activity since process start (or [`reset_stats`]).
///
/// `busy_secs` sums per-worker on-CPU-ish time across all workers;
/// `wall_secs` sums the elapsed time of each parallel region once. Both
/// are host-clock measurements — feed them to *gauges* (`par.*`), never
/// into deterministic phase tables.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Number of parallel regions executed (one per `tiled_map` call that
    /// actually fanned out; serial fallbacks count too, with one worker).
    pub regions: u64,
    /// Total tiles processed across all regions.
    pub tiles: u64,
    /// Summed per-worker busy seconds.
    pub busy_secs: f64,
    /// Summed region wall-clock seconds.
    pub wall_secs: f64,
}

impl PoolStats {
    /// Fraction of `workers × wall` that was busy — 1.0 means perfect
    /// scaling, 1/workers means one worker did everything.
    pub fn utilization(&self, workers: usize) -> f64 {
        let denom = self.wall_secs * workers.max(1) as f64;
        if denom <= 0.0 {
            0.0
        } else {
            (self.busy_secs / denom).min(1.0)
        }
    }
}

/// Snapshot the cumulative pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        regions: REGIONS.load(Ordering::Relaxed),
        tiles: TILES.load(Ordering::Relaxed),
        busy_secs: BUSY_NANOS.load(Ordering::Relaxed) as f64 * 1e-9,
        wall_secs: WALL_NANOS.load(Ordering::Relaxed) as f64 * 1e-9,
    }
}

/// Zero the cumulative pool counters (between bench phases).
pub fn reset_stats() {
    REGIONS.store(0, Ordering::Relaxed);
    TILES.store(0, Ordering::Relaxed);
    BUSY_NANOS.store(0, Ordering::Relaxed);
    WALL_NANOS.store(0, Ordering::Relaxed);
}

fn record_region(tiles: usize, busy_nanos: u64, wall_nanos: u64) {
    REGIONS.fetch_add(1, Ordering::Relaxed);
    TILES.fetch_add(tiles as u64, Ordering::Relaxed);
    BUSY_NANOS.fetch_add(busy_nanos, Ordering::Relaxed);
    WALL_NANOS.fetch_add(wall_nanos, Ordering::Relaxed);
}

/// Run `f` as a *serial* pool region: counted in [`stats`] (one region,
/// `ntiles` tiles, busy == wall) exactly like [`tiled_map_weighted`]'s
/// own serial fallback, without spawning anything. Pooled kernels whose
/// sub-dispatch path is a different serial core — not the tiled closure
/// on one worker — wrap it in this so `regions` keeps meaning "pooled
/// kernel invocations", whether or not workers engaged.
pub fn serial_region<T>(ntiles: usize, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let el = t0.elapsed().as_nanos() as u64;
    record_region(ntiles, el, el);
    out
}

// ---------------------------------------------------------------------------
// Deterministic tiled reduction
// ---------------------------------------------------------------------------

/// Minimum estimated work (inner-loop operations: flops, scatter writes,
/// …) below which [`tiled_map_weighted`] skips pool dispatch entirely.
///
/// Each region spawns its workers as scoped OS threads, which costs tens
/// of microseconds; a workload smaller than this finishes serially before
/// the pool would even be assembled. Calibrated against the solver-loop
/// Gram kernels: an `sb × sb` block Gram with a few hundred nonzeros per
/// column clears the bar only once the tile work dwarfs the spawn cost.
/// Recalibrated upward (2¹⁷ → 2²⁰) when the SIMD microkernels multiplied
/// serial throughput: a quick-mode dense Gram (~5·10⁵ estimated ops) now
/// finishes in ~40µs serially — the same order as assembling the pool —
/// so dispatching it loses on every host. The break-even moved to
/// roughly a megaop (≈1ms of serial work), where a 2–4× win dwarfs the
/// spawn cost.
pub const MIN_DISPATCH_WORK: u64 = 1 << 20;

/// Cached `available_parallelism` — the fan-out cap. On a single-CPU host
/// pooled workers only contend (the committed baseline once recorded
/// `kernel.sparse_gram.wall_t4 > wall_t1` for exactly this reason), so
/// dispatch is pointless beyond the hardware width.
fn host_cpus() -> usize {
    static CPUS: AtomicUsize = AtomicUsize::new(0);
    match CPUS.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            CPUS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Worker count a tiled region will actually dispatch with, given the
/// caller's thread budget, the tile count, and an estimated total `work`
/// (in inner-loop operations; pass `u64::MAX` when unknown).
///
/// Returns 1 (serial, no pool) when the host has a single CPU, when the
/// work estimate is below [`MIN_DISPATCH_WORK`], or when fewer than two
/// tiles exist. Purely a throughput decision: results are bitwise
/// identical at every width by the pool's determinism contract.
pub fn dispatch_width(nthreads: usize, ntiles: usize, work: u64) -> usize {
    dispatch_width_for(nthreads, ntiles, work, host_cpus())
}

/// [`dispatch_width`] with an explicit host-CPU count (unit-testable).
fn dispatch_width_for(nthreads: usize, ntiles: usize, work: u64, cpus: usize) -> usize {
    if work < MIN_DISPATCH_WORK {
        return 1;
    }
    nthreads.max(1).min(ntiles.max(1)).min(cpus.max(1))
}

/// Run `f` once per tile index in `0..ntiles` on up to `nthreads` scoped
/// workers and return the results **in tile order**.
///
/// `init` builds one scratch state per worker (e.g. a scatter workspace)
/// when the worker claims its first tile — a worker that loses the race
/// for every tile builds nothing — reused across every tile that worker
/// claims: per-worker state, never shared, so tiles cannot observe each
/// other. Tiles are claimed dynamically (an atomic cursor) for load
/// balance; determinism comes from the output being slotted by tile
/// index, not completion order.
///
/// Falls back to a single in-place loop when `nthreads <= 1` or
/// `ntiles <= 1` — the parallel and serial paths run the *same* `f`, so
/// outputs are identical by construction. Callers that can estimate
/// their total work should prefer [`tiled_map_weighted`], which also
/// skips dispatch for workloads too small to amortize the spawn cost.
pub fn tiled_map<T, S, I, F>(nthreads: usize, ntiles: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    tiled_map_weighted(nthreads, ntiles, u64::MAX, init, f)
}

/// [`tiled_map`] with an estimated total `work` (inner-loop operations)
/// steering the serial-fallback heuristic: regions smaller than
/// [`MIN_DISPATCH_WORK`], or running on a single-CPU host, skip pool
/// dispatch and run the same `f` in place. Output is bitwise identical
/// to every other width — the hint is a pure throughput knob.
pub fn tiled_map_weighted<T, S, I, F>(
    nthreads: usize,
    ntiles: usize,
    work: u64,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = dispatch_width(nthreads, ntiles, work);
    if workers <= 1 || ntiles <= 1 {
        let t0 = Instant::now();
        let mut state = None;
        let out: Vec<T> = (0..ntiles)
            .map(|idx| f(state.get_or_insert_with(&init), idx))
            .collect();
        let el = t0.elapsed().as_nanos() as u64;
        record_region(ntiles, el, el);
        return out;
    }

    let t0 = Instant::now();
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let w0 = Instant::now();
                    let mut state = None;
                    let mut mine = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= ntiles {
                            break;
                        }
                        mine.push((idx, f(state.get_or_insert_with(&init), idx)));
                    }
                    (w0.elapsed().as_nanos() as u64, mine)
                })
            })
            .collect();
        let mut busy = 0u64;
        let parts = handles
            .into_iter()
            .map(|h| {
                let (b, part) = h.join().expect("saco-par worker panicked");
                busy += b;
                part
            })
            .collect();
        record_region(ntiles, busy, t0.elapsed().as_nanos() as u64);
        parts
    });

    // Merge in fixed tile order: slot every result by its tile index.
    let mut slots: Vec<Option<T>> = (0..ntiles).map(|_| None).collect();
    for part in &mut parts {
        for (idx, value) in part.drain(..) {
            debug_assert!(slots[idx].is_none(), "tile {idx} computed twice");
            slots[idx] = Some(value);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, s)| s.unwrap_or_else(|| panic!("tile {idx} never computed")))
        .collect()
}

/// Run `f(index, item)` on one dedicated scoped thread **per item** and
/// return results in item order.
///
/// This is *not* pooled: every item gets its own OS thread, because the
/// caller's items may block on each other (mpisim's SPMD ranks exchange
/// messages through blocking channels — multiplexing them onto fewer
/// workers would deadlock). Use [`tiled_map`] for compute tiles.
pub fn scoped_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    std::thread::scope(|scope| {
        let fref = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || fref(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saco-par scoped thread panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Background worker
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A single dedicated worker thread consuming `FnOnce` jobs from a queue —
/// the pool primitive for work that must run *behind* the main thread
/// rather than *with* it (shard prefetch I/O hiding behind solver
/// compute, see `sparsela::shard`).
///
/// Unlike [`tiled_map`], jobs here are side-effecting and asynchronous:
/// `submit` returns immediately and the job runs whenever the worker gets
/// to it, in submission order. Nothing about solver *numerics* may ever
/// flow through this type — it exists for I/O and cache warming, where
/// only completion timing (never output bits) depends on the race.
/// Dropping the worker drains the queue: every submitted job still runs
/// before the worker thread is joined.
pub struct BackgroundWorker {
    tx: std::sync::Mutex<Option<std::sync::mpsc::Sender<Job>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BackgroundWorker {
    /// Spawn the worker thread (named `name` for debuggers/`/proc`).
    pub fn spawn(name: &str) -> BackgroundWorker {
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("saco-par: spawn background worker");
        BackgroundWorker {
            tx: std::sync::Mutex::new(Some(tx)),
            handle: Some(handle),
        }
    }

    /// Enqueue `job`; it runs on the worker thread after every previously
    /// submitted job. Panics if called after the worker shut down (only
    /// possible during `Drop`).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .lock()
            .expect("background worker sender poisoned")
            .as_ref()
            .expect("background worker already shut down")
            .send(Box::new(job))
            .expect("background worker thread died");
    }
}

impl Drop for BackgroundWorker {
    fn drop(&mut self) {
        // Closing the channel ends the worker's recv loop after the queue
        // drains; join so submitted I/O is never abandoned mid-write.
        *self.tx.lock().expect("background worker sender poisoned") = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for BackgroundWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackgroundWorker").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Schedule modelling
// ---------------------------------------------------------------------------

/// Deterministic makespan bound for `weights` list-scheduled in order onto
/// `workers` workers (each tile goes to the currently least-loaded worker,
/// ties to the lowest index).
///
/// This models the pool's dynamic tile claiming without depending on host
/// timing, so modeled parallel `comp_time` gauges derived from it are
/// byte-stable run to run. For balanced tiles it approaches
/// `total / workers`; it is never below `max(total/workers, max_weight)`'s
/// greedy schedule.
pub fn schedule_bound(weights: &[u64], workers: usize) -> u64 {
    let w = workers.max(1);
    let mut loads = vec![0u64; w];
    for &weight in weights {
        let argmin = (0..w).min_by_key(|&i| loads[i]).expect("w >= 1");
        loads[argmin] += weight;
    }
    loads.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool counters and the thread count are process-global, and the
    /// harness runs tests on parallel threads: every test that bumps, reads
    /// or sets them holds this lock, so `stats_accumulate_and_reset` sees
    /// its own region only, on any host at any `--test-threads`.
    static GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn globals() -> std::sync::MutexGuard<'static, ()> {
        // A failed holder leaves the counters no worse than a finished one.
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn tiled_map_preserves_tile_order_at_any_thread_count() {
        let _globals = globals();
        let serial = tiled_map(1, 40, || (), |_, i| i * i);
        for threads in [2usize, 3, 4, 7, 16, 64] {
            let par = tiled_map(threads, 40, || (), |_, i| i * i);
            assert_eq!(par, serial, "threads={threads}");
        }
        assert_eq!(serial, (0..40).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tiled_map_worker_state_is_private_and_reused() {
        let _globals = globals();
        // Each worker counts the tiles it ran through its state; the sum
        // over all tiles of "tiles seen so far by my worker" is only
        // consistent if states are never shared between workers.
        let counts = tiled_map(
            4,
            100,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts.len(), 100);
        // Every worker's sequence 1,2,3,… partitions the tiles.
        let total: usize = counts.iter().filter(|&&c| c == 1).count();
        assert!(
            (1..=4).contains(&total),
            "one restart per worker, got {total}"
        );
    }

    #[test]
    fn init_runs_only_for_workers_that_claim_a_tile() {
        let _globals = globals();
        for (threads, ntiles) in [(4usize, 0usize), (4, 1), (4, 3), (2, 40), (64, 40)] {
            let built = AtomicUsize::new(0);
            let out = tiled_map(
                threads,
                ntiles,
                || built.fetch_add(1, Ordering::Relaxed),
                |state, i| (i, *state),
            );
            // Results slot in tile order whichever state computed them.
            let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..ntiles).collect::<Vec<_>>());
            // No tiles, no scratch; never more states than workers or
            // tiles; and every state built ran at least one tile.
            let built = built.into_inner();
            assert!(
                built <= threads.min(ntiles),
                "{built} inits, {ntiles} tiles"
            );
            let mut used: Vec<usize> = out.iter().map(|&(_, s)| s).collect();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used, (0..built).collect::<Vec<_>>());
        }
    }

    #[test]
    fn dispatch_width_serializes_tiny_and_single_cpu_work() {
        // 1-CPU host: never dispatch, whatever the budget or work size.
        assert_eq!(dispatch_width_for(4, 64, u64::MAX, 1), 1);
        assert_eq!(dispatch_width_for(16, 1024, 1 << 30, 1), 1);
        // Work below the bar: serial even with CPUs to spare.
        assert_eq!(dispatch_width_for(4, 64, MIN_DISPATCH_WORK - 1, 8), 1);
        assert_eq!(dispatch_width_for(4, 64, 0, 8), 1);
        // Work at/above the bar: capped by budget, tiles, and CPUs.
        assert_eq!(dispatch_width_for(4, 64, MIN_DISPATCH_WORK, 8), 4);
        assert_eq!(dispatch_width_for(8, 64, u64::MAX, 2), 2);
        assert_eq!(dispatch_width_for(8, 3, u64::MAX, 8), 3);
        // Degenerate inputs clamp instead of panicking.
        assert_eq!(dispatch_width_for(0, 0, u64::MAX, 0), 1);
    }

    #[test]
    fn tiled_map_weighted_matches_tiled_map_at_any_work_hint() {
        let _globals = globals();
        let serial = tiled_map(1, 24, || (), |_, i| 3 * i + 1);
        for work in [0, MIN_DISPATCH_WORK - 1, MIN_DISPATCH_WORK, u64::MAX] {
            let out = tiled_map_weighted(4, 24, work, || (), |_, i| 3 * i + 1);
            assert_eq!(out, serial, "work={work}");
        }
    }

    #[test]
    fn tiny_weighted_regions_run_on_one_worker() {
        let _globals = globals();
        // A below-threshold region must not fan out: every tile then flows
        // through a single worker state, so the per-worker restart count
        // (tiles that saw a fresh state) is exactly 1.
        let counts = tiled_map_weighted(
            4,
            50,
            MIN_DISPATCH_WORK - 1,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn tiled_map_handles_degenerate_sizes() {
        let _globals = globals();
        assert!(tiled_map(4, 0, || (), |_, i| i).is_empty());
        assert_eq!(tiled_map(0, 3, || (), |_, i| i), vec![0, 1, 2]);
        assert_eq!(tiled_map(9, 1, || (), |_, i| i + 7), vec![7]);
    }

    #[test]
    fn scoped_map_returns_in_item_order() {
        let out = scoped_map(vec![5u64, 1, 9, 3], |i, v| (i, v * 2));
        assert_eq!(out, vec![(0, 10), (1, 2), (2, 18), (3, 6)]);
        let empty: Vec<u64> = scoped_map(Vec::<u64>::new(), |_, v| v);
        assert!(empty.is_empty());
    }

    #[test]
    fn schedule_bound_models_greedy_makespan() {
        // Serial: everything on one worker.
        assert_eq!(schedule_bound(&[3, 1, 4, 1, 5], 1), 14);
        // Balanced tiles split evenly.
        assert_eq!(schedule_bound(&[2, 2, 2, 2], 2), 4);
        // A dominant tile lower-bounds the makespan.
        assert_eq!(schedule_bound(&[10, 1, 1, 1], 4), 10);
        // More workers never increase the bound.
        let w = [7u64, 3, 9, 2, 8, 4, 6, 1];
        let mut prev = u64::MAX;
        for k in 1..=8 {
            let b = schedule_bound(&w, k);
            assert!(b <= prev, "workers={k}");
            prev = b;
        }
        assert_eq!(schedule_bound(&[], 4), 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let _globals = globals();
        reset_stats();
        let _ = tiled_map(4, 32, || (), |_, i| i);
        let s = stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.tiles, 32);
        assert!(s.wall_secs >= 0.0 && s.busy_secs >= 0.0);
        assert!(s.utilization(4) <= 1.0);
        reset_stats();
        assert_eq!(stats(), PoolStats::default());
    }

    #[test]
    fn background_worker_runs_jobs_in_order_and_drains_on_drop() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let w = BackgroundWorker::spawn("test-bg");
            for i in 0..32u32 {
                let seen = Arc::clone(&seen);
                w.submit(move || seen.lock().unwrap().push(i));
            }
            // Drop joins after the queue drains.
        }
        assert_eq!(*seen.lock().unwrap(), (0..32).collect::<Vec<u32>>());
    }

    #[test]
    fn thread_config_round_trips() {
        let _globals = globals();
        set_threads(6);
        assert_eq!(threads(), 6);
        set_threads(0); // clamped
        assert_eq!(threads(), 1);
        set_threads(1);
    }
}
