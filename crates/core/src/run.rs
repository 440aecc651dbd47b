//! One entry point for every solve: a [`RunSpec`] names the method, the
//! engine and the data source as independent parameters, and [`run`]
//! executes it.
//!
//! The paper's point (§III) is that SA-BCD/accBCD/SVM are *the same
//! recurrence* as their classical twins — `exec::driver` makes that one
//! loop — and the same holds one level up: which method runs and where it
//! runs do not interact, so the product `method × engine × source` is a
//! value, not a function per cell.
//!
//! Every method runs in every cell, from either source; DESIGN.md §6 "The
//! run surface" tabulates the relation each cell holds to the `Seq` /
//! `InMemory` reference (`Sim` bitwise; `Net` bitwise at p = 1 and ≤ 1e-9
//! beyond; `Shards` bitwise ≡ `InMemory`), and `tests/goldens/cells.txt`
//! pins every cell's objective bits. Lasso
//! samples columns, so it streams CSC-axis shards and splits rows across
//! ranks; SVM and K-DCD sample rows, stream CSR-axis shards and split
//! columns. What does not exist is a typed [`RunError`], never a panic: a
//! shard store of the wrong axis, `p = 0`, an invalid config, an unreadable
//! directory. (Chaos on a non-`Sim` engine is unrepresentable: it is a
//! field of [`Engine::Sim`].)
//!
//! # The solver entry points
//!
//! * [`run`], [`run_rank`] — everything;
//! * `seq::{bcd, acc_bcd, sa_bcd, sa_accbcd, svm, sa_svm, kdcd}` — the
//!   paper's Algorithms 1–4 by name, one-liners over the same families on
//!   a span-free sequential backend;
//! * `net::net_sa_accbcd`, `stream::stream_sa_accbcd` — frozen
//!   signatures the `benchmark/` package compiles against;
//! * `sim::sim_lasso_path` — a warm-started λ sweep, not a cell of this
//!   product.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::config::{KdcdConfig, KdcdTask, LassoConfig, SvmConfig};
use crate::exec::{
    kdcd_family, lasso_family, svm_family, ExecBackend, KdcdStats, NetBackend, SeqBackend,
    SimBackend,
};
use crate::net::{record_net_stats, LassoRankData, SvmRankData};
use crate::prox::{Lasso, Regularizer};
use crate::stream::{
    minor_partition, record_shard_stats, IoStats, ShardAxis, ShardStore, StreamRankData,
    StreamingMatrix,
};
use crate::trace::SolveResult;
use datagen::Partition;
use mpisim::{ChaosSpec, CostModel, CostReport};
use netcomm::cluster::run_local;
use netcomm::{NetComm, StatsSnapshot};
use saco_telemetry::Registry;
use sparsela::io::Dataset;
use sparsela::SliceSource;

/// Which recurrence to run. `cfg.s = 1` is the classical method in every
/// family.
#[derive(Debug)]
pub enum Method<'a, R: Regularizer = Lasso> {
    /// Proximal least-squares `½‖Ax − b‖² + g(x)`: (SA-)accBCD when
    /// `accel` (Algorithms 1–2), else (SA-)BCD.
    Lasso {
        /// The penalty `g`.
        reg: &'a R,
        /// Block size, unrolling depth, budget, sampling.
        cfg: &'a LassoConfig,
        /// Nesterov acceleration.
        accel: bool,
    },
    /// Dual coordinate descent for linear SVM (Algorithms 3–4).
    Svm(&'a SvmConfig),
    /// Kernel dual coordinate descent (K-DCD / K-BDCD).
    Kdcd(&'a KdcdConfig),
}

/// The dual methods with the regularizer parameter defaulted (unused
/// outside `Lasso`, but inference needs it named).
impl<'a> Method<'a> {
    /// [`Method::Svm`].
    pub fn svm(cfg: &'a SvmConfig) -> Self {
        Method::Svm(cfg)
    }

    /// [`Method::Kdcd`].
    pub fn kdcd(cfg: &'a KdcdConfig) -> Self {
        Method::Kdcd(cfg)
    }
}

impl<R: Regularizer> Method<'_, R> {
    /// The axis this method samples — columns (CSC) for Lasso, rows (CSR)
    /// for the duals: the shard axis it streams, the rank split it needs.
    pub fn axis(&self) -> ShardAxis {
        match self {
            Method::Lasso { .. } => ShardAxis::Csc,
            Method::Svm(_) | Method::Kdcd(_) => ShardAxis::Csr,
        }
    }

    fn check(&self, features: usize) -> Result<(), RunError> {
        match self {
            Method::Lasso { cfg, .. } => cfg.check(features),
            Method::Svm(cfg) => cfg.check(),
            Method::Kdcd(cfg) => cfg.check(),
        }
        .map_err(RunError::Config)
    }

    fn base_name(&self) -> &'static str {
        match self {
            Method::Lasso { accel: true, .. } => "sa_accbcd",
            Method::Lasso { accel: false, .. } => "sa_bcd",
            Method::Svm(_) => "sa_svm",
            Method::Kdcd(cfg) => match cfg.task {
                KdcdTask::Svm(_) => "ksvm",
                KdcdTask::Ridge => "kridge",
            },
        }
    }

    /// The wall-span keys `Engine::Seq` records per outer iteration:
    /// `seq.<solver>.{sampling,gram,inner}`.
    fn span_names(&self) -> [&'static str; 3] {
        macro_rules! spans {
            ($solver:literal) => {
                [
                    concat!("seq.", $solver, ".sampling"),
                    concat!("seq.", $solver, ".gram"),
                    concat!("seq.", $solver, ".inner"),
                ]
            };
        }
        match self {
            Method::Lasso { accel: true, .. } => spans!("sa_accbcd"),
            Method::Lasso { accel: false, .. } => spans!("sa_bcd"),
            Method::Svm(_) => spans!("sa_svm"),
            Method::Kdcd(_) => spans!("kdcd"),
        }
    }

    /// Enter the family's recurrence: the one place a method meets a
    /// matrix and a backend.
    fn solve<'r, M: SliceSource + Sync, B: ExecBackend<'r>>(
        &self,
        a: &M,
        b: &[f64],
        backend: &mut B,
    ) -> (SolveResult, Option<KdcdStats>) {
        match *self {
            Method::Lasso { reg, cfg, accel } => {
                (lasso_family(a, b, reg, cfg, accel, backend), None)
            }
            Method::Svm(cfg) => (svm_family(a, b, cfg, backend), None),
            Method::Kdcd(cfg) => {
                let (res, stats) = kdcd_family(a, b, cfg, backend);
                (res, Some(stats))
            }
        }
    }
}

/// Where the recurrence runs.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// One address space, no communication, exact per-iteration traces;
    /// records `seq.<solver>.*` wall spans.
    Seq,
    /// `mpisim`'s virtual cluster: sequential numerics, every rank charged
    /// its analytic share against `model` (paper-scale `p`).
    Sim {
        /// Virtual rank count.
        p: usize,
        /// The α-β-γ machine.
        model: CostModel,
        /// Partition by nnz instead of by count.
        balanced: bool,
        /// A deterministic perturbation plan: time moves, values never.
        chaos: Option<ChaosSpec>,
    },
    /// An in-process `netcomm` socket mesh: real wires, measured time.
    Net {
        /// Rank (OS thread + socket endpoint) count.
        p: usize,
        /// Partition by nnz instead of by count.
        balanced: bool,
    },
}

impl Engine {
    /// [`Engine::Sim`] on the clean (chaos-free) cluster.
    pub fn sim(p: usize, model: CostModel, balanced: bool) -> Engine {
        Engine::Sim {
            p,
            model,
            balanced,
            chaos: None,
        }
    }

    /// `seq`, `sim` or `net`.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Sim { .. } => "sim",
            Engine::Net { .. } => "net",
        }
    }

    /// The rank count, for the engines that have ranks.
    pub fn ranks(&self) -> Option<usize> {
        match *self {
            Engine::Seq => None,
            Engine::Sim { p, .. } | Engine::Net { p, .. } => Some(p),
        }
    }
}

/// Where the matrix comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    /// A loaded dataset.
    InMemory(&'a Dataset),
    /// A `saco shard` directory streamed under `budget` resident bytes per
    /// view (each rank of a net run gets its own budget).
    Shards {
        /// The shard directory.
        dir: &'a Path,
        /// Resident byte cap per view.
        budget: u64,
    },
}

/// One solve: method × engine × source.
#[derive(Debug)]
pub struct RunSpec<'a, R: Regularizer = Lasso> {
    /// Which recurrence.
    pub method: Method<'a, R>,
    /// Where it runs.
    pub engine: Engine,
    /// What it reads.
    pub source: Source<'a>,
}

impl<'a, R: Regularizer> RunSpec<'a, R> {
    /// The three coordinates of a cell.
    pub fn new(method: Method<'a, R>, engine: Engine, source: Source<'a>) -> Self {
        RunSpec {
            method,
            engine,
            source,
        }
    }

    /// The `solver` meta string of this cell — the historical function
    /// names (`sim_sa_accbcd`, `stream_net_sa_bcd`, `net_ksvm`, …), kept
    /// because committed reports and goldens carry them. Sequential
    /// Lasso/SVM never had an engine prefix; `sim` never split K-DCD by
    /// task.
    pub fn solver_name(&self) -> String {
        let base = self.method.base_name();
        let name = match (&self.engine, &self.method) {
            (Engine::Seq, Method::Lasso { .. } | Method::Svm(_)) => base.to_string(),
            (Engine::Sim { .. }, Method::Kdcd(_)) => "sim_kdcd".to_string(),
            (engine, _) => format!("{}_{base}", engine.name()),
        };
        match self.source {
            Source::InMemory(_) => name,
            Source::Shards { .. } => format!("stream_{name}"),
        }
    }
}

/// Why a [`RunSpec`] could not run.
#[derive(Debug)]
pub enum RunError {
    /// A rank engine was asked for zero ranks.
    ZeroRanks,
    /// The shard store (or rank data) is laid out for the other family.
    WrongAxis {
        /// The axis the method samples.
        needs: ShardAxis,
        /// The axis the data has.
        found: ShardAxis,
        /// The shard directory, when the data came from one.
        dir: Option<PathBuf>,
    },
    /// The method's config violates an invariant (the message names it).
    Config(String),
    /// The shard directory could not be read.
    Io {
        /// The shard directory.
        dir: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::ZeroRanks => write!(f, "a rank engine needs at least one rank (p = 0)"),
            RunError::WrongAxis { needs, found, dir } => {
                let (want, why) = match needs {
                    ShardAxis::Csc => ("csc", "Lasso samples columns"),
                    ShardAxis::Csr => ("csr", "SVM and K-DCD sample rows"),
                };
                let holder = match dir {
                    Some(d) => d.display().to_string(),
                    None => "the rank data".to_string(),
                };
                write!(
                    f,
                    "{why}, so this method streams {want}-axis shards, but {holder} holds \
                     {found:?} — re-shard with `saco shard --axis {want}`"
                )
            }
            RunError::Config(msg) => write!(f, "invalid solver config: {msg}"),
            RunError::Io { dir, source } => write!(f, "shard store {}: {source}", dir.display()),
        }
    }
}

impl std::error::Error for RunError {}

/// What a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The solve result: one entry on `Seq`/`Sim`, one per rank (in rank
    /// order) on `Net`. Lasso and K-DCD iterates are replicated; SVM ranks
    /// hold their local slice of `x`.
    pub results: Vec<SolveResult>,
    /// Kernel-cache/exchange counters, parallel to `results`
    /// ([`Method::Kdcd`] only, else empty).
    pub kdcd: Vec<KdcdStats>,
    /// The modeled critical-path cost (`Sim`).
    pub report: Option<CostReport>,
    /// The run's telemetry: per-rank phase tables and collective counts
    /// (`Sim`), `seq.*` wall spans (`Seq`), `net.*` (`Net`),
    /// `kmethod.*` (K-DCD), `shard.*`/`io.*` (`Source::Shards`), plus
    /// the `solver`/`s`/`mu` meta and `solver.*` counters.
    pub telemetry: Registry,
    /// I/O counters of every streaming view (`Source::Shards`): one on
    /// `Seq`/`Sim`, one per rank on `Net`.
    pub io: Vec<IoStats>,
    /// Measured wall seconds of the engine's run — rank spawn and solve;
    /// loading, splitting and opening the data are not on this clock.
    pub wall_secs: f64,
    /// [`Engine::name`] of the engine that ran.
    pub engine: &'static str,
}

impl RunOutcome {
    /// The first (or only) result — the replicated iterate for Lasso and
    /// K-DCD, rank 0's slice for SVM on a rank engine.
    pub fn result(&self) -> &SolveResult {
        &self.results[0]
    }

    /// The run report a frontend writes: a copy of the telemetry plus
    /// which engine produced it, the final objective, and the run's clock
    /// — `time.running` where the time is modeled, `time.wall_secs` where
    /// it is measured.
    pub fn run_report(&self) -> Registry {
        let mut t = Registry::new();
        t.merge(&self.telemetry);
        t.set_meta("cli.engine", self.engine);
        t.gauge_set("objective.final", self.results[0].final_value());
        match self.report {
            Some(rep) => t.gauge_set("time.running", rep.running_time()),
            None => t.gauge_set("time.wall_secs", self.wall_secs),
        }
        t
    }
}

/// One rank's share of the problem, in any of the three layouts.
#[derive(Clone, Copy, Debug)]
pub enum RankData<'d> {
    /// A row block (Lasso).
    Lasso(&'d LassoRankData),
    /// A column block (SVM, K-DCD).
    Svm(&'d SvmRankData),
    /// A windowed view of a shard store (either axis).
    Stream(&'d StreamRankData),
}

/// Run `method` as one SPMD rank on a mesh the caller already joined
/// (`saco launch`'s rank processes). [`run`] executes exactly this on
/// every rank it spawns.
///
/// Fails with [`RunError::WrongAxis`] when `data` is laid out for the
/// other family.
///
/// # Panics
/// Fail-stop on a mesh error mid-solve (see `exec::net`).
pub fn run_rank<R: Regularizer>(
    method: &Method<'_, R>,
    comm: &mut NetComm,
    data: RankData<'_>,
) -> Result<(SolveResult, Option<KdcdStats>), RunError> {
    let (axis, dir) = match data {
        RankData::Lasso(_) => (ShardAxis::Csc, None),
        RankData::Svm(_) => (ShardAxis::Csr, None),
        RankData::Stream(d) => {
            let store = d.mat.store();
            (store.manifest().axis, Some(store.dir()))
        }
    };
    check_axis(method.axis(), axis, dir)?;
    Ok(match data {
        RankData::Lasso(d) => on_rank(method, comm, &d.csc, &d.b),
        RankData::Svm(d) => on_rank(method, comm, &d.csr, &d.b),
        RankData::Stream(d) => on_rank(method, comm, &d.mat, &d.b),
    })
}

/// One rank on its local block `a` (already in the layout `method`
/// samples) with local labels `b`.
fn on_rank<R: Regularizer, M: SliceSource + Sync>(
    method: &Method<'_, R>,
    comm: &mut NetComm,
    a: &M,
    b: &[f64],
) -> (SolveResult, Option<KdcdStats>) {
    let rows = match method.axis() {
        ShardAxis::Csc => a.minor_len(),
        ShardAxis::Csr => a.major_len(),
    };
    assert_eq!(b.len(), rows, "local label slice mismatch");
    method.solve(a, b, &mut NetBackend::new(comm))
}

/// Open `dir` and check it is sharded along `axis` (see [`Method::axis`]):
/// the one place a path becomes a store.
pub fn open_store(dir: &Path, axis: ShardAxis) -> Result<ShardStore, RunError> {
    let store = ShardStore::open(dir).map_err(io_error(dir))?;
    check_axis(axis, store.manifest().axis, Some(dir))?;
    Ok(store)
}

fn io_error(dir: &Path) -> impl FnOnce(std::io::Error) -> RunError + '_ {
    move |source| RunError::Io {
        dir: dir.to_path_buf(),
        source,
    }
}

fn check_axis(needs: ShardAxis, found: ShardAxis, dir: Option<&Path>) -> Result<(), RunError> {
    if found == needs {
        return Ok(());
    }
    Err(RunError::WrongAxis {
        needs,
        found,
        dir: dir.map(Path::to_path_buf),
    })
}

/// Execute `spec`. See the module docs for what each cell guarantees.
///
/// # Panics
/// Fail-stop if a rank panics or the in-process mesh fails mid-solve.
pub fn run<R: Regularizer>(spec: &RunSpec<'_, R>) -> Result<RunOutcome, RunError> {
    if spec.engine.ranks() == Some(0) {
        return Err(RunError::ZeroRanks);
    }
    let axis = spec.method.axis();
    let mut out = match spec.source {
        Source::InMemory(ds) => {
            spec.method.check(ds.num_features())?;
            in_memory(spec, ds)
        }
        Source::Shards { dir, budget } => {
            let store = open_store(dir, axis)?;
            let man = store.manifest();
            spec.method.check(match axis {
                ShardAxis::Csc => man.major,
                ShardAxis::Csr => man.minor,
            })?;
            streamed(spec, store, budget).map_err(io_error(dir))?
        }
    };
    let t = &mut out.telemetry;
    t.set_meta("solver", spec.solver_name());
    match spec.method {
        Method::Lasso { cfg, .. } => {
            t.set_meta("s", cfg.s);
            t.set_meta("mu", cfg.mu);
        }
        Method::Svm(cfg) => t.set_meta("s", cfg.s),
        Method::Kdcd(cfg) => {
            t.set_meta("s", cfg.s);
            t.set_meta("kernel", format!("{:?}", cfg.kernel));
        }
    }
    if let Engine::Sim {
        chaos: Some(chaos), ..
    } = spec.engine
    {
        t.set_meta("chaos.seed", chaos.seed);
    }
    t.counter_add("solver.iterations", out.results[0].iters as u64);
    t.counter_add("solver.trace_points", out.results[0].trace.len() as u64);
    if let Some(stats) = out.kdcd.first() {
        record_kdcd_stats(t, stats);
    }
    Ok(out)
}

fn in_memory<R: Regularizer>(spec: &RunSpec<'_, R>, ds: &Dataset) -> RunOutcome {
    match (spec.engine, spec.method.axis()) {
        (Engine::Seq | Engine::Sim { .. }, ShardAxis::Csc) => {
            let part = |p, balanced| (datagen::row_partition(&ds.a, p, balanced), None);
            replicated(spec, &ds.a.to_csc(), &ds.b, part)
        }
        (Engine::Seq | Engine::Sim { .. }, ShardAxis::Csr) => {
            let part = |p, balanced| (datagen::col_partition(&ds.a, p, balanced), None);
            replicated(spec, &ds.a, &ds.b, part)
        }
        (Engine::Net { p, balanced }, ShardAxis::Csc) => ranked(
            spec,
            &LassoRankData::split(ds, p, balanced).1,
            RankData::Lasso,
        ),
        (Engine::Net { p, balanced }, ShardAxis::Csr) => {
            ranked(spec, &SvmRankData::split(ds, p, balanced).1, RankData::Svm)
        }
    }
}

fn streamed<R: Regularizer>(
    spec: &RunSpec<'_, R>,
    store: ShardStore,
    budget: u64,
) -> std::io::Result<RunOutcome> {
    let mut out = match spec.engine {
        Engine::Seq | Engine::Sim { .. } => {
            let sim_split = match spec.engine {
                Engine::Sim { p, balanced, .. } => Some(minor_partition(&store, p, balanced)?),
                _ => None,
            };
            let b = store.read_labels()?;
            let minor = store.manifest().minor;
            let mat = StreamingMatrix::from_store(store, budget, (0, minor));
            let part = |_, _| {
                let (part, gap_nnz) = sim_split.expect("partitioned above for Engine::Sim");
                (part, Some(gap_nnz))
            };
            let mut out = replicated(spec, &mat, &b, part);
            out.io.push(mat.io_stats());
            record_shard_stats(&mut out.telemetry, &mat);
            out
        }
        Engine::Net { p, balanced } => {
            let (_, ranks) = StreamRankData::split(&store, p, balanced, budget)?;
            let mut out = ranked(spec, &ranks, RankData::Stream);
            for r in &ranks {
                out.io.push(r.mat.io_stats());
                let mut one = Registry::new();
                record_shard_stats(&mut one, &r.mat);
                fold_rank(&mut out.telemetry, &one);
            }
            out
        }
    };
    out.telemetry.set_meta("data.source", "shard");
    Ok(out)
}

/// The replicated engines: one address space holding the whole matrix
/// `a` (in the layout the method samples). `partition(p, balanced)` is
/// the minor-axis rank split `Sim` charges against, with the per-rank nnz
/// histogram when a sidecar already knows it.
fn replicated<R: Regularizer, M: SliceSource + Sync>(
    spec: &RunSpec<'_, R>,
    a: &M,
    b: &[f64],
    partition: impl FnOnce(usize, bool) -> (Partition, Option<Vec<u64>>),
) -> RunOutcome {
    let t0 = Instant::now();
    match spec.engine {
        Engine::Seq => {
            let mut telemetry = Registry::new();
            let (res, stats) = {
                let mut backend = SeqBackend::instrumented(&telemetry, spec.method.span_names());
                spec.method.solve(a, b, &mut backend)
            };
            telemetry.set_meta("engine", "sequential");
            outcome(spec, t0, vec![(res, stats)], None, telemetry)
        }
        Engine::Sim {
            p,
            model,
            balanced,
            chaos,
        } => {
            let mut backend = match partition(p, balanced) {
                (part, Some(gap_nnz)) => SimBackend::with_gap_nnz(p, model, a, part, gap_nnz),
                (part, None) => SimBackend::new(p, model, a, part),
            };
            if let Some(plan) = &chaos {
                backend.enable_chaos(plan);
            }
            let solved = spec.method.solve(a, b, &mut backend);
            let cluster = backend.into_cluster();
            let report = cluster.report();
            outcome(spec, t0, vec![solved], Some(report), cluster.telemetry())
        }
        Engine::Net { .. } => unreachable!("the mesh splits the data; see `ranked`"),
    }
}

/// The socket mesh: spawn one in-process rank per share of `ranks`, each
/// running [`run_rank`] on its share.
fn ranked<'d, R: Regularizer, D: Sync>(
    spec: &RunSpec<'_, R>,
    ranks: &'d [D],
    view: impl Fn(&'d D) -> RankData<'d> + Sync,
) -> RunOutcome {
    let solver = spec.solver_name();
    let t0 = Instant::now();
    let per_rank = run_local(ranks.len(), |rank, comm| {
        let (setup, rank_t0) = (comm.stats(), Instant::now());
        let solved = run_rank(&spec.method, comm, view(&ranks[rank]))
            .expect("the split laid the data out for this method");
        let wall = rank_t0.elapsed().as_secs_f64();
        (solved, net_rank_telemetry(&solver, comm, &setup, wall))
    });
    let telemetry = merge_rank_registries(per_rank.iter().map(|(_, t)| t));
    let solved = per_rank.into_iter().map(|(s, _)| s).collect();
    outcome(spec, t0, solved, None, telemetry)
}

fn outcome<R: Regularizer>(
    spec: &RunSpec<'_, R>,
    started: Instant,
    solved: Vec<(SolveResult, Option<KdcdStats>)>,
    report: Option<CostReport>,
    telemetry: Registry,
) -> RunOutcome {
    let (results, kdcd): (Vec<_>, Vec<_>) = solved.into_iter().unzip();
    RunOutcome {
        results,
        kdcd: kdcd.into_iter().flatten().collect(),
        report,
        telemetry,
        io: Vec::new(),
        wall_secs: started.elapsed().as_secs_f64(),
        engine: spec.engine.name(),
    }
}

/// One mesh rank's registry: the `net.*` block (see
/// [`record_net_stats`]) under the meta a run report is keyed by. The
/// in-process mesh and `saco launch`'s rank processes both build their
/// per-rank reports here, so [`merge_rank_registries`] sees one shape.
/// `setup` is the mesh's counters just before the solve.
pub fn net_rank_telemetry(
    solver: &str,
    comm: &NetComm,
    setup: &StatsSnapshot,
    wall_secs: f64,
) -> Registry {
    let mut t = Registry::new();
    t.set_meta("engine", "socket_mesh");
    t.set_meta("cli.engine", "net");
    t.set_meta("solver", solver);
    record_net_stats(&mut t, comm, setup, wall_secs);
    t
}

/// Fold one rank's registry into a run-level one: counters and phase
/// tables add, gauges keep the per-rank maximum (the critical rank's view
/// of each measured quantity).
fn fold_rank(into: &mut Registry, rank: &Registry) {
    for (k, v) in rank.counters() {
        into.counter_add(k, *v);
    }
    for (k, v) in rank.gauges() {
        if into.gauge(k).is_none_or(|cur| *v > cur) {
            into.gauge_set(k, *v);
        }
    }
    for (&r, table) in rank.rank_tables() {
        into.phases_mut(r).merge(table);
    }
}

/// The one cross-rank merge policy (in-process mesh and `saco launch`):
/// meta from rank 0 with `net.rank` widened to `all`, counters and phase
/// tables summed, gauges maxed.
pub fn merge_rank_registries<'a>(ranks: impl IntoIterator<Item = &'a Registry>) -> Registry {
    let mut merged = Registry::new();
    for (i, r) in ranks.into_iter().enumerate() {
        if i == 0 {
            for (k, v) in r.meta() {
                merged.set_meta(k, v);
            }
        }
        fold_rank(&mut merged, r);
    }
    merged.set_meta("net.rank", "all");
    merged
}

/// Record a solve's [`KdcdStats`] under the `kmethod.*` namespace (see
/// OBSERVABILITY.md).
fn record_kdcd_stats(registry: &mut Registry, stats: &KdcdStats) {
    registry.counter_add("kmethod.cache.hits", stats.cache.hits);
    registry.counter_add("kmethod.cache.misses", stats.cache.misses);
    registry.counter_add("kmethod.cache.evictions", stats.cache.evictions);
    registry.gauge_set(
        "kmethod.cache.resident_bytes",
        stats.cache_resident_bytes as f64,
    );
    registry.counter_add("kmethod.tile.rows", stats.tile_rows);
    registry.counter_add("kmethod.eval.entries", stats.eval_entries);
    registry.counter_add("kmethod.eval.flops", stats.eval_flops);
    registry.counter_add("kmethod.exchange.words", stats.exchange_words);
    registry.counter_add("kmethod.exchange.skipped", stats.exchange_skipped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KdcdTask, SvmLoss};
    use saco_telemetry::Phase;

    /// The merge policy, stated once: meta from rank 0 (`net.rank`
    /// widened), counters and phase tables summed, gauges maxed.
    #[test]
    fn rank_merge_takes_meta_from_rank_zero_sums_counters_and_maxes_gauges() {
        let rank = |r: usize, bytes: u64, wait: f64| {
            let mut t = Registry::new();
            t.set_meta("solver", format!("from_rank_{r}"));
            t.set_meta("net.rank", r);
            t.counter_add("net.bytes_tx", bytes);
            t.gauge_set("net.wait.wall_secs", wait);
            t.record_phase(r, Phase::Comm, wait, bytes / 8, 0);
            t
        };
        let ranks = [rank(0, 80, 0.5), rank(1, 160, 2.0), rank(2, 40, 1.0)];
        let merged = merge_rank_registries(&ranks);
        assert_eq!(merged.meta()["solver"], "from_rank_0");
        assert_eq!(merged.meta()["net.rank"], "all");
        assert_eq!(merged.counter("net.bytes_tx"), 280);
        assert_eq!(merged.gauge("net.wait.wall_secs"), Some(2.0));
        assert_eq!(merged.rank_tables().len(), 3, "phase tables stay per rank");
        assert_eq!(merged.phase_totals().comm_time(), 3.5);
        // Merging one rank is the identity on everything but `net.rank`.
        let alone = merge_rank_registries(&ranks[1..2]);
        assert_eq!(alone.counter("net.bytes_tx"), 160);
        assert_eq!(alone.gauge("net.wait.wall_secs"), Some(2.0));
    }

    /// The naming function reproduces the historical `solver` strings
    /// (committed reports, goldens and CI greps carry them).
    #[test]
    fn solver_names_reproduce_the_historical_strings() {
        let a = sparsela::CooMatrix::new(1, 1).to_csr();
        let ds = Dataset { a, b: vec![0.0] };
        let (reg, lcfg, scfg) = (
            Lasso::new(0.1),
            LassoConfig::default(),
            SvmConfig::default(),
        );
        let [ksvm, ridge] = [KdcdTask::Svm(SvmLoss::L1), KdcdTask::Ridge].map(|task| KdcdConfig {
            task,
            ..Default::default()
        });
        let lasso = |accel| {
            let (reg, cfg) = (&reg, &lcfg);
            Method::Lasso { reg, cfg, accel }
        };
        let (p, model, balanced) = (2, CostModel::cray_xc30(), false);
        let sim = Engine::sim(p, model, balanced);
        let net = Engine::Net { p, balanced };
        let (mem, dir) = (Source::InMemory(&ds), Path::new("unused"));
        let shards = Source::Shards { dir, budget: 0 };
        for (method, engine, source, want) in [
            (lasso(true), Engine::Seq, mem, "sa_accbcd"),
            (lasso(false), Engine::Seq, mem, "sa_bcd"),
            (lasso(true), sim, mem, "sim_sa_accbcd"),
            (lasso(false), net, mem, "net_sa_bcd"),
            (lasso(true), net, mem, "net_sa_accbcd"),
            (lasso(true), Engine::Seq, shards, "stream_sa_accbcd"),
            (lasso(false), sim, shards, "stream_sim_sa_bcd"),
            (lasso(false), net, shards, "stream_net_sa_bcd"),
            (lasso(true), net, shards, "stream_net_sa_accbcd"),
            (Method::svm(&scfg), Engine::Seq, shards, "stream_sa_svm"),
            (Method::svm(&scfg), sim, mem, "sim_sa_svm"),
            (Method::kdcd(&ksvm), Engine::Seq, mem, "seq_ksvm"),
            (Method::kdcd(&ridge), Engine::Seq, mem, "seq_kridge"),
            (Method::kdcd(&ksvm), sim, mem, "sim_kdcd"),
            (Method::kdcd(&ridge), net, mem, "net_kridge"),
            (Method::kdcd(&ksvm), net, mem, "net_ksvm"),
        ] {
            assert_eq!(RunSpec::new(method, engine, source).solver_name(), want);
        }
    }

    /// Everything derived from a flag or a path is a `RunError`; the rank
    /// layouts reject the other family's method instead of mis-solving.
    #[test]
    fn bad_specs_are_typed_errors_not_panics() {
        let a = datagen::uniform_sparse(30, 12, 0.3, 1);
        let ds = datagen::planted_regression(a, 3, 0.05, 1).dataset;
        let reg = Lasso::new(0.1);
        let run_lasso = |cfg: &LassoConfig, engine| {
            let (reg, accel) = (&reg, true);
            let method = Method::Lasso { reg, cfg, accel };
            run(&RunSpec::new(method, engine, Source::InMemory(&ds)))
        };
        let zero = Engine::Net {
            p: 0,
            balanced: false,
        };
        let err = run_lasso(&LassoConfig::default(), zero).expect_err("p = 0");
        assert!(matches!(err, RunError::ZeroRanks), "{err}");
        let wide = LassoConfig {
            mu: 13,
            ..Default::default()
        };
        let err = run_lasso(&wide, Engine::Seq).expect_err("µ > n");
        assert!(
            err.to_string().contains("exceeds feature count 12"),
            "{err}"
        );

        let scfg = SvmConfig::default();
        let (_, blocks) = LassoRankData::split(&ds, 1, false);
        let err = run_local(1, |_, comm| {
            let data = RankData::Lasso(&blocks[0]);
            run_rank(&Method::svm(&scfg), comm, data).map(|_| ())
        })
        .remove(0)
        .expect_err("row blocks cannot feed a row-sampling method");
        assert!(matches!(err, RunError::WrongAxis { .. }), "{err}");
    }
}
