//! `saco-par`: a zero-dependency scoped worker pool whose one primitive,
//! [`for_each_tile`], runs tiles on disjoint chunks of a caller-owned
//! slice.
//!
//! The SA solvers' equivalence guarantees (SA ≡ classical, seq ≡ virtual
//! cluster, streamed ≡ in-memory) rest on *bitwise* reproducibility, so
//! intra-rank parallelism must never perturb numerics. The primitive
//! enforces one contract:
//!
//! 1. work is split into **tiles** whose per-entry arithmetic is exactly
//!    the serial kernel's (no partial sums are ever combined across tiles
//!    in scheduling order);
//! 2. tile `i` **writes only chunk `i`** of the output, regardless of
//!    which worker runs it or when it finishes.
//!
//! Under that contract the thread count is a pure throughput knob: any
//! `nthreads` (including 1) produces byte-identical output, which is what
//! the proptests in `sparsela` pin. See `docs/PERFORMANCE.md`.
//!
//! This crate depends only on `std` (the build environment is offline).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// Number of parallel regions executed (one per [`for_each_tile`] or
    /// [`serial_region`] call, whether or not workers fanned out).
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

/// Run `f` as a *serial* pool region: counted in [`stats`] as one region
/// of `ntiles` tiles (busy == wall), as a [`for_each_tile`] region run in
/// place is, without spawning anything. Pooled kernels whose
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
// Tiles on disjoint chunks
// ---------------------------------------------------------------------------

/// Minimum estimated work (inner-loop operations: flops, scatter writes,
/// …) below which [`for_each_tile`] skips pool dispatch entirely.
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
/// pooled workers only contend (a 4-thread sparse Gram once ran slower
/// than the serial one for exactly this reason), so dispatch is pointless
/// beyond the hardware width.
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

/// Worker count a region of `ntiles` tiles and estimated `work`
/// (inner-loop operations) dispatches with, out of a budget of `workers`
/// and a host of `cpus`.
///
/// 1 (serial, no spawn) when the host has a single CPU, when the work is
/// below [`MIN_DISPATCH_WORK`], or when fewer than two tiles exist. Purely
/// a throughput decision: every width writes the same bits.
fn dispatch_width_for(workers: usize, ntiles: usize, work: u64, cpus: usize) -> usize {
    if work < MIN_DISPATCH_WORK {
        return 1;
    }
    workers.max(1).min(ntiles.max(1)).min(cpus.max(1))
}

/// Run `f(state, tile, chunk)` for every `chunk`-long tile of `data` (the
/// last one ragged), tile `i` on `&mut data[i·chunk..]`'s chunk, on up to
/// one worker per caller-held state in `states`.
///
/// Worker `w` owns `states[w]` for the whole region — never shared, so
/// tiles cannot observe each other, and a worker that claims no tile
/// leaves its state untouched. Tiles are claimed in order, each once;
/// whichever worker runs a tile, it writes only its own chunk, so
/// `data` ends up the same at every width. The first worker runs on the
/// calling thread, the others on scoped threads spawned for the region.
///
/// `work` (inner-loop operations; `u64::MAX` when unknown) steers the
/// width: below [`MIN_DISPATCH_WORK`], on a single-CPU host, with one
/// state or with one tile, every tile runs in place on `states[0]`.
/// Either way the region and its tiles are counted in [`stats`].
///
/// # Panics
///
/// If `chunk` is 0, or `data` is not empty and `states` is.
pub fn for_each_tile<T, S, F>(data: &mut [T], chunk: usize, work: u64, states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "tiles of zero length");
    let ntiles = data.len().div_ceil(chunk);
    let t0 = Instant::now();
    let workers = dispatch_width_for(states.len(), ntiles, work, host_cpus()).min(states.len());
    // The lock is held only to claim a tile, never while one runs.
    let (tiles, busy) = (
        Mutex::new(data.chunks_mut(chunk).enumerate()),
        AtomicU64::new(0),
    );
    let run = &|state: &mut S| {
        let w0 = Instant::now();
        loop {
            let claimed = tiles.lock().expect("claiming a tile never panics").next();
            let Some((tile, rows)) = claimed else { break };
            f(state, tile, rows);
        }
        busy.fetch_add(w0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    match states[..workers].split_first_mut() {
        Some((first, rest)) => std::thread::scope(|scope| {
            for state in rest {
                scope.spawn(move || run(state));
            }
            run(first);
        }),
        None => assert_eq!(ntiles, 0, "no worker state"),
    }
    record_region(ntiles, busy.into_inner(), t0.elapsed().as_nanos() as u64);
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

    /// `ntiles` one-entry tiles through [`for_each_tile`] on `workers`
    /// states built by `state`, each tile writing `f(state, tile)`.
    fn run<S: Send, T: Send + Default + Clone>(
        workers: usize,
        ntiles: usize,
        work: u64,
        state: impl Fn() -> S,
        f: impl Fn(&mut S, usize) -> T + Sync,
    ) -> (Vec<T>, Vec<S>) {
        let mut out = vec![T::default(); ntiles];
        let mut states: Vec<S> = (0..workers).map(|_| state()).collect();
        for_each_tile(&mut out, 1, work, &mut states, |s, tile, chunk| {
            chunk[0] = f(s, tile)
        });
        (out, states)
    }

    #[test]
    fn tiles_write_their_own_chunks_at_any_width() {
        let _globals = globals();
        // Three-entry chunks, the last one ragged: every entry names its
        // tile and its place in the chunk.
        let want: Vec<(usize, usize)> = (0..121).map(|i| (i / 3, i % 3)).collect();
        for workers in [1usize, 2, 3, 4, 7, 16, 64] {
            let mut out = vec![(usize::MAX, usize::MAX); 121];
            for_each_tile(
                &mut out,
                3,
                u64::MAX,
                &mut vec![(); workers],
                |_, tile, chunk| {
                    assert!(chunk.len() == 3 || (tile == 40 && chunk.len() == 1));
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (tile, i);
                    }
                },
            );
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        let _globals = globals();
        // Each worker counts the tiles it ran through its state; the
        // counts restart at 1 once per worker that ran a tile, and the
        // states sum to the tiles only if no two workers share one.
        let (counts, states) = run(
            4,
            100,
            u64::MAX,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        let restarts = counts.iter().filter(|&&c| c == 1).count();
        assert!(
            (1..=4).contains(&restarts),
            "one restart per worker, got {restarts}"
        );
        assert_eq!(restarts, states.iter().filter(|&&s| s > 0).count());
        assert_eq!(states.iter().sum::<usize>(), 100);
    }

    #[test]
    fn init_runs_only_for_workers_that_claim_a_tile() {
        let _globals = globals();
        // A state built lazily by its first tile, as the sampled Gram
        // sizes a worker's buffers.
        for (workers, ntiles) in [(4usize, 0usize), (4, 1), (4, 3), (2, 40), (64, 40)] {
            let built = AtomicUsize::new(0);
            let (out, states) = run(
                workers,
                ntiles,
                u64::MAX,
                || None,
                |state, tile| {
                    (
                        tile,
                        *state.get_or_insert_with(|| built.fetch_add(1, Ordering::Relaxed)),
                    )
                },
            );
            let order: Vec<usize> = out.iter().map(|&(t, _)| t).collect();
            assert_eq!(order, (0..ntiles).collect::<Vec<_>>());
            // No tiles, no scratch; never more states built than workers
            // or tiles; and every state built ran at least one tile.
            let built = built.into_inner();
            assert!(
                built <= workers.min(ntiles),
                "{built} inits, {ntiles} tiles"
            );
            assert_eq!(states.iter().flatten().count(), built);
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
    fn output_is_the_same_at_any_work_hint() {
        let _globals = globals();
        let want: Vec<usize> = (0..24).map(|i| 3 * i + 1).collect();
        for work in [0, MIN_DISPATCH_WORK - 1, MIN_DISPATCH_WORK, u64::MAX] {
            let (out, _) = run(4, 24, work, || (), |_, i| 3 * i + 1);
            assert_eq!(out, want, "work={work}");
        }
    }

    #[test]
    fn tiny_weighted_regions_run_on_one_worker() {
        let _globals = globals();
        // A below-threshold region must not fan out: every tile then flows
        // through the first state, in tile order, and the others stay
        // untouched.
        let (counts, states) = run(
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
        assert_eq!(states, [50, 0, 0, 0]);
    }

    #[test]
    fn tiles_handle_degenerate_sizes() {
        let _globals = globals();
        assert!(run(4, 0, u64::MAX, || (), |_, i| i).0.is_empty());
        // No tiles need no state.
        for_each_tile(
            &mut [0u8; 0],
            1,
            u64::MAX,
            &mut [(); 0],
            |_, _, _| unreachable!(),
        );
        assert_eq!(run(9, 1, u64::MAX, || (), |_, i| i + 7).0, vec![7]);
        // One chunk longer than the data is the whole of it.
        let mut out = [0u8; 5];
        for_each_tile(&mut out, 8, u64::MAX, &mut [(); 3], |_, tile, chunk| {
            chunk.fill(tile as u8 + 1)
        });
        assert_eq!(out, [1; 5]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let _globals = globals();
        reset_stats();
        let _ = run(4, 32, u64::MAX, || (), |_, i| i);
        let s = stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.tiles, 32);
        assert!(s.wall_secs >= 0.0 && s.busy_secs >= 0.0);
        assert!(s.utilization(4) <= 1.0);
        reset_stats();
        assert_eq!(stats(), PoolStats::default());
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
