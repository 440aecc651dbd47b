//! `saco` — command-line frontend for the synchronization-avoiding solvers.
//!
//! `saco help` prints every subcommand with its synopsis; both come from
//! the [`SUBCOMMANDS`] table below, which is also what rejects an option a
//! subcommand does not read. A solving subcommand's row also carries its
//! family and defaults, and every solve runs through the one [`solve`] body.
mod args;

use args::{ArgError, Args};
use datagen::{shard_plan, slice_nnz, PaperDataset};
use mpisim::telemetry::report::parse_summary;
use mpisim::telemetry::Registry;
use mpisim::{CostModel, CostReport};
use saco::net::{Addr, Backoff, LassoRankData, NetComm, NetConfig};
use saco::path::lasso_path;
use saco::prox::Lasso;
use saco::run::{
    merge_rank_registries, net_rank_telemetry, open_store, run, run_rank, Engine, Method, RankData,
    RunError, RunOutcome, RunSpec, Source,
};
use saco::serve::{ModelArtifact, ServeConfig, MAX_REQUEST_ITERS};
use saco::{ConvergenceTrace, KdcdConfig, KdcdTask, LassoConfig, SolveResult, SvmConfig, SvmLoss};
use sparsela::io::{read_libsvm, write_libsvm, Dataset};
use sparsela::shard::{
    verify_store, write_csc, write_csr, IoStats, ShardAxis, ShardStore, StreamingMatrix,
};
use sparsela::vecops;
use sparsela::SliceSource;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A `saco` subcommand: what it runs, its line in `saco help`, and its
/// synopsis. The synopsis is also the option whitelist — a subcommand
/// accepts exactly the `--name`s written there (plus the process-wide
/// `--threads`) — and the default table: a solve reads `--mu`, `--s`,
/// `--iters`, `--trace-every` and `--lambda` defaults where `saco help`
/// shows them.
struct Subcommand {
    name: &'static str,
    /// Empty for the hidden `_netrank` child.
    about: &'static str,
    synopsis: &'static str,
    run: Run,
}

impl Subcommand {
    fn accepts(&self, option: &str) -> bool {
        option == "threads"
            || self
                .synopsis
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|tok| tok.strip_prefix("--") == Some(option))
    }

    /// The default the synopsis states for `--name` (`[--s 16]`: 16);
    /// `None` where it names a placeholder (`--lambda X`) or no option.
    fn default<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        let mut toks = self.synopsis.split_whitespace();
        toks.find(|t| t.trim_start_matches('[') == flag)?;
        toks.next()?.trim_end_matches(']').parse().ok()
    }
}

/// What a subcommand runs.
enum Run {
    /// A body of its own.
    Cmd(fn(&Args) -> Result<(), ArgError>),
    /// The one solve body, [`solve`], for a family, with the `--engine`
    /// default (`None`: no `--engine`, the solve is sequential).
    Solve(Family, Option<&'static str>),
}

/// The solver family of a solving subcommand.
#[derive(Clone, Copy)]
enum Family {
    Lasso,
    Svm,
    Ksvm,
    Kridge,
}

/// `saco launch`'s synopsis; its `_netrank` child accepts the same
/// options, with the same defaults, plus the two the parent adds per rank.
macro_rules! launch_synopsis {
    () => {
        "--data train.svm [--p 4] [--engine net] [--lambda X | --lambda-frac 0.1]
                [--s 16] [--mu 1] [--iters 2000] [--seed 42] [--acc] [--balanced]
                [--rel-tol T] [--trace-every 0] [--rendezvous tcp:HOST:PORT]
                [--rundir DIR] [--io-timeout 30] [--metrics merged.json]"
    };
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "lasso",
        about: "train a Lasso model on a LIBSVM file",
        synopsis: "--data train.svm|shard:DIR [--lambda X | --lambda-frac 0.1] [--mu 8]
                [--s 16] [--iters 10000] [--seed 42] [--acc] [--rel-tol T]
                [--trace-every 0] [--mem-budget 256M] [--metrics report.json]
                [--model-out m.saco] [--out w.txt]",
        run: Run::Solve(Family::Lasso, None),
    },
    Subcommand {
        name: "svm",
        about: "train a linear SVM (dual coordinate descent)",
        synopsis: "--data train.svm|shard:DIR [--loss l1|l2] [--lambda 1] [--s 64]
                [--iters 100000] [--seed 42] [--gap-tol 0.1] [--trace-every 1000]
                [--mem-budget 256M] [--metrics report.json] [--model-out m.saco]
                [--out w.txt]",
        run: Run::Solve(Family::Svm, None),
    },
    Subcommand {
        name: "ksvm",
        about: "train a kernel SVM (K-DCD: cached on-demand kernel rows,
            any --engine; all-hit blocks skip the allreduce)",
        synopsis: "--data train.svm|shard:DIR [--kernel rbf:gamma=G|poly:d=D|linear]
                [--loss l1|l2] [--lambda 1] [--s 8] [--iters 10000] [--seed 42]
                [--trace-every 0] [--cache-budget 64M] [--engine seq|sim|net]
                [--p 4] [--balanced] [--chaos spec] [--mem-budget 256M]
                [--metrics report.json] [--model-out m.saco] [--out alpha.txt]",
        run: Run::Solve(Family::Ksvm, Some("seq")),
    },
    Subcommand {
        name: "kridge",
        about: "kernel ridge regression in the dual (K-BDCD)",
        synopsis: "--data train.svm|shard:DIR [--kernel rbf:gamma=G|poly:d=D|linear]
                [--lambda 0.5] [--s 8] [--iters 10000] [--seed 42] [--trace-every 0]
                [--cache-budget 64M] [--engine seq|sim|net] [--p 4] [--balanced]
                [--chaos spec] [--mem-budget 256M] [--metrics report.json]
                [--model-out m.saco] [--out alpha.txt]",
        run: Run::Solve(Family::Kridge, Some("seq")),
    },
    Subcommand {
        name: "path",
        about: "compute a warm-started regularization path",
        synopsis: "--data train.svm [--num 16] [--ratio 0.01] [--mu 8] [--s 16]
                [--iters 10000] [--seed 42] [--rel-tol T] [--trace-every 0]
                [--select-support K [--out w.txt]]",
        run: Run::Cmd(cmd_path),
    },
    Subcommand {
        name: "generate",
        about: "write a synthetic stand-in for a paper dataset",
        synopsis: "--dataset url --out file.svm [--scale 1.0] [--seed 42]",
        run: Run::Cmd(cmd_generate),
    },
    Subcommand {
        name: "shard",
        about: "convert a dataset into an on-disk shard directory for
            out-of-core streaming (--verify round-trips bitwise)",
        synopsis: "--data file.svm | --dataset url [--scale 1.0] [--seed 42] --out DIR
                [--axis csc|csr] [--shards 64] [--verify]",
        run: Run::Cmd(cmd_shard),
    },
    Subcommand {
        name: "info",
        about: "print dataset statistics",
        synopsis: "--data file.svm|shard:DIR",
        run: Run::Cmd(cmd_info),
    },
    Subcommand {
        name: "simulate",
        about: "run a solver on a chosen execution engine and report costs
            (--metrics <path> writes a saco-telemetry/v1 JSON run report)",
        synopsis: "--data train.svm|shard:DIR [--engine seq|sim|net] [--p P]
                [--lambda X | --lambda-frac 0.1] [--s 16] [--mu 1] [--iters 2000]
                [--seed 42] [--acc] [--balanced] [--rel-tol T] [--trace-every 0]
                [--mem-budget 256M] [--metrics report.json]
                [--chaos seed=7,skew=0.2,jitter=1e-4,straggle=0.05,fail=3@10]",
        run: Run::Solve(Family::Lasso, Some("sim")),
    },
    Subcommand {
        name: "launch",
        about: "spawn --p real OS rank processes over a TCP/Unix socket mesh,
            solve, and merge the per-rank run reports (measured time)",
        synopsis: launch_synopsis!(),
        run: Run::Solve(Family::Lasso, Some("net")),
    },
    Subcommand {
        name: "_netrank",
        about: "",
        synopsis: concat!(launch_synopsis!(), " --rank R --report rank.json"),
        run: Run::Solve(Family::Lasso, Some("net")),
    },
    Subcommand {
        name: "cv",
        about: "k-fold cross-validated λ path",
        synopsis: "--data train.svm [--folds 5] [--num 12] [--ratio 0.01] [--mu 8]
                [--s 16] [--iters 10000] [--seed 42] [--rel-tol T] [--trace-every 0]
                [--metrics report.json]",
        run: Run::Cmd(cmd_cv),
    },
    Subcommand {
        name: "serve",
        about: "answer score/train-delta/λ-path requests for a trained
            --model artifact over a TCP/Unix socket (--listen), with
            one thread per connection and serve.* SLO telemetry",
        synopsis: "--model m.saco --data train.svm --listen unix:/tmp/s.sock
                [--slo-ms 250] [--train-iters 512] [--chaos spec]
                [--max-requests N] [--metrics report.json]",
        run: Run::Cmd(cmd_serve),
    },
    Subcommand {
        name: "help",
        about: "this message",
        synopsis: "",
        run: Run::Cmd(|_| {
            print_usage();
            Ok(())
        }),
    },
];

/// The table row of the subcommand `args` runs.
fn row(args: &Args) -> &'static Subcommand {
    let mut rows = SUBCOMMANDS.iter();
    rows.find(|c| c.name == args.command)
        .expect("dispatched from the table")
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage();
            std::process::exit(2);
        }
    };
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let Some(sub) = SUBCOMMANDS.iter().find(|c| c.name == args.command) else {
        fail(format!("unknown subcommand {:?}", args.command));
    };
    if let Some(bad) = args.names().find(|name| !sub.accepts(name)) {
        fail(format!(
            "unknown option --{bad} for {}\n\nusage:\n  saco {:<9}{}",
            sub.name, sub.name, sub.synopsis
        ));
    }
    match args.get_opt::<usize>("threads") {
        Ok(Some(t)) => saco_par::set_threads(t),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let done = match sub.run {
        Run::Cmd(cmd) => cmd(&args),
        Run::Solve(family, engine) => solve(&args, sub, family, engine),
    };
    if let Err(e) = done {
        fail(e.to_string());
    }
}

fn print_usage() {
    eprintln!("saco — synchronization-avoiding sparse convex optimization\n\nsubcommands:");
    let shown = || SUBCOMMANDS.iter().filter(|c| !c.about.is_empty());
    for c in shown() {
        eprintln!("  {:<10}{}", c.name, c.about);
    }
    eprintln!("\nsynopsis (a subcommand rejects any option not listed for it):");
    for c in shown().filter(|c| !c.synopsis.is_empty()) {
        eprintln!("  saco {:<9}{}", c.name, c.synopsis);
    }
    eprintln!(
        "
`--model-out <path>` ({}) writes a saco-model/v1
artifact. A non---acc lasso artifact is resumable: it stores the
residual bits + sampling provenance, so `saco serve` continues training
bitwise identically to an uncut run. Other families are score-only
(kernel duals are inspect-only — they cannot be scored linearly).

`--engine seq|sim|net` picks the backend of
{}:
seq = sequential reference, sim = modeled virtual cluster (α-β-γ cost
model), net = in-process socket mesh with measured wall-clock time. All
engines produce the same iterates; `saco launch` runs engine net across
real processes.

`--threads N` (or SACO_THREADS=N) runs the shared-memory kernels on N
pooled workers; results are bitwise identical at any thread count.

`--chaos seed=S,skew=X,jitter=Y,straggle=F,fail=RANK@STEP` (--engine sim
only) injects a seeded, replayable straggler/jitter/failure plan into
the virtual cluster. Chaos perturbs time, never values: the solver
output stays bitwise identical to the chaos-free run, and the run
report gains `chaos.*` counters and gauges.

`--data shard:<dir>` ({}) streams
the solve out-of-core from a `saco shard` directory under a `--mem-budget`
resident cap (default 256M; binary K/M/G suffixes). The sampler runs
blocks ahead, as many as the cap holds, so the loader prefetches behind
compute; the iterates stay bitwise identical to the in-memory run.",
        naming("--model-out"),
        naming("--engine"),
        naming("shard:DIR"),
    );
}

/// The listed subcommands whose synopsis names `token`, comma-separated;
/// for `--engine`, each with its default.
fn naming(token: &str) -> String {
    let rows = SUBCOMMANDS.iter().filter(|c| !c.about.is_empty());
    let names: Vec<String> = rows
        .filter(|c| c.synopsis.contains(token))
        .map(|c| match c.run {
            Run::Solve(_, Some(e)) if token == "--engine" => format!("{} (default {e})", c.name),
            _ => c.name.to_string(),
        })
        .collect();
    names.join(", ")
}

fn load(args: &Args) -> Result<Dataset, ArgError> {
    let path = args.require("data")?;
    if shard_dir(args).is_some() {
        return Err(ArgError(format!(
            "--data {path}: shard directories stream through {}; this subcommand \
             needs a LIBSVM file",
            naming("shard:DIR")
        )));
    }
    let file = File::open(path).map_err(|e| ArgError(format!("open {path}: {e}")))?;
    let ds =
        read_libsvm(BufReader::new(file), 0).map_err(|e| ArgError(format!("parse {path}: {e}")))?;
    if ds.num_points() == 0 || ds.num_features() == 0 {
        return Err(ArgError(format!("{path} contains no data")));
    }
    Ok(ds)
}

fn write_weights(args: &Args, x: &[f64]) -> Result<(), ArgError> {
    if let Some(path) = args.get("out") {
        let mut w = BufWriter::new(
            File::create(path).map_err(|e| ArgError(format!("create {path}: {e}")))?,
        );
        for v in x {
            writeln!(w, "{v}").map_err(|e| ArgError(format!("write {path}: {e}")))?;
        }
        println!("weights written to {path}");
    }
    Ok(())
}

/// A count option that must be at least 1 (`--p`, `--s`, `--mu`,
/// `--iters`): zero is a typed error naming the flag, not an assert deep
/// in a solver or a partitioner.
fn positive(args: &Args, name: &str, default: usize) -> Result<usize, ArgError> {
    match args.get_or(name, default)? {
        0 => Err(ArgError(format!("--{name} must be at least 1"))),
        n => Ok(n),
    }
}

// ---------------------------------------------------------------------------
// The run surface: `--engine/--p/--balanced/--chaos` pick the engine,
// `--data [shard:]…` + `--mem-budget` the source; `saco::run` does the rest.
// ---------------------------------------------------------------------------

/// The directory of a `--data shard:<dir>` argument.
fn shard_dir(args: &Args) -> Option<&str> {
    args.get("data")?.strip_prefix("shard:")
}

/// What `--data` named: a loaded LIBSVM file, or an open shard directory
/// (the out-of-core path) with its labels sidecar and the `--mem-budget`
/// resident byte cap (default 256M; per view — each rank of a net
/// run gets its own budget).
enum Data {
    Memory(Dataset),
    Shards {
        dir: PathBuf,
        budget: u64,
        store: ShardStore,
        labels: Vec<f64>,
    },
}

impl Data {
    fn source(&self) -> Source<'_> {
        match self {
            Data::Memory(ds) => Source::InMemory(ds),
            Data::Shards { dir, budget, .. } => Source::Shards {
                dir,
                budget: *budget,
            },
        }
    }

    fn dataset(&self) -> Option<&Dataset> {
        match self {
            Data::Memory(ds) => Some(ds),
            Data::Shards { .. } => None,
        }
    }

    /// `(points, features)`.
    fn dims(&self) -> (usize, usize) {
        match self {
            Data::Memory(ds) => (ds.num_points(), ds.num_features()),
            Data::Shards { store, .. } => manifest_dims(store),
        }
    }

    fn labels(&self) -> &[f64] {
        match self {
            Data::Memory(ds) => &ds.b,
            Data::Shards { labels, .. } => labels,
        }
    }
}

/// `(points, features)` of a shard store, whichever axis it chunks.
fn manifest_dims(store: &ShardStore) -> (usize, usize) {
    let man = store.manifest();
    match man.axis {
        ShardAxis::Csr => (man.major, man.minor),
        ShardAxis::Csc => (man.minor, man.major),
    }
}

/// `--engine` by name plus the flags that parameterize it; `mesh` is the
/// most ranks engine net may run.
fn parse_engine(args: &Args, name: &str, mesh: usize) -> Result<Engine, ArgError> {
    if name != "sim" && args.get("chaos").is_some() {
        return Err(ArgError(format!(
            "--chaos injects faults into the *modeled* cluster; engine {name:?} runs real code (use --engine sim)"
        )));
    }
    let balanced = args.flag("balanced");
    let model = CostModel::cray_xc30();
    Ok(match name {
        "seq" => Engine::Seq,
        "sim" => Engine::Sim {
            p: positive(args, "p", 1024)?,
            model,
            balanced,
            chaos: parse_chaos(args)?,
        },
        // One socket endpoint per rank (default 4, at most `mesh`).
        "net" => match args.get_or("p", 4)? {
            p if p == 0 || p > mesh => {
                return Err(ArgError(format!(
                    "a socket mesh runs one endpoint per rank; --p must be 1..={mesh}, got {p}"
                )))
            }
            p => Engine::Net { p, balanced },
        },
        other => {
            return Err(ArgError(format!(
                "--engine must be seq|sim|net, got {other:?}"
            )))
        }
    })
}

/// `--chaos seed=S,skew=X,jitter=Y,straggle=F,fail=RANK@STEP`.
fn parse_chaos(args: &Args) -> Result<Option<mpisim::ChaosSpec>, ArgError> {
    args.get("chaos")
        .map(|spec| mpisim::ChaosSpec::parse(spec).map_err(|e| ArgError(format!("--chaos: {e}"))))
        .transpose()
}

/// The one place a command line becomes a run surface: the engine
/// (`--engine`, else the row's default; rows without one run
/// sequentially) and the data. Only rows whose synopsis names `shard:DIR`
/// stream, and a store of the other axis than the family samples is
/// rejected with re-shard advice.
fn parse_run(
    args: &Args,
    sub: &Subcommand,
    family: Family,
    default_engine: Option<&str>,
) -> Result<(Engine, Data), ArgError> {
    let name = default_engine.map_or("seq", |e| args.get("engine").unwrap_or(e));
    // A launched mesh runs one process per rank, an in-process one a thread.
    let launched = matches!(sub.name, "launch" | "_netrank");
    if launched && name != "net" {
        return Err(ArgError(format!(
            "launch spawns real rank processes, which only the net engine supports; \
             got --engine {name:?} (run `saco simulate --engine {name}` instead)"
        )));
    }
    let engine = parse_engine(args, name, if launched { 256 } else { 64 })?;
    let streams = sub.synopsis.contains("shard:DIR");
    let Some(dir) = shard_dir(args).filter(|_| streams) else {
        return Ok((engine, Data::Memory(load(args)?)));
    };
    if args.get("chaos").is_some() {
        return Err(ArgError(
            "--chaos perturbs the modeled cluster; the streaming path does real I/O \
             (drop shard: or --chaos)"
                .into(),
        ));
    }
    if args.get("model-out").is_some() {
        return Err(ArgError(
            "--model-out fingerprints the in-memory dataset; drop shard: to write an artifact"
                .into(),
        ));
    }
    let budget = parse_bytes(args.get("mem-budget").unwrap_or("256M"))
        .map_err(|e| ArgError(format!("--mem-budget: {e}")))?;
    let axis = match family {
        Family::Lasso => ShardAxis::Csc,
        Family::Svm | Family::Ksvm | Family::Kridge => ShardAxis::Csr,
    };
    let store = open_store(Path::new(dir), axis)?;
    let labels = store
        .read_labels()
        .map_err(|e| ArgError(format!("read labels from {dir}: {e}")))?;
    let dir = PathBuf::from(dir);
    let data = Data::Shards {
        dir,
        budget,
        store,
        labels,
    };
    Ok((engine, data))
}

/// A typed run error, rendered for the terminal.
impl From<RunError> for ArgError {
    fn from(e: RunError) -> Self {
        ArgError(e.to_string())
    }
}

/// λ from `--lambda`, else the synopsis default, else `--lambda-frac`
/// (default 0.1) of ‖Aᵀb‖∞. On a shard store (CSC axis: the major slices
/// *are* the columns) one transient pass of
/// [`SliceSource::major_spmv_into`] computes Aᵀb on a throwaway view, so
/// the solve's I/O counters start clean.
fn resolve_lambda(args: &Args, data: &Data) -> Result<f64, ArgError> {
    if let Some(l) = args
        .get_opt::<f64>("lambda")?
        .or(row(args).default("lambda"))
    {
        return Ok(l);
    }
    let frac = args.get_or("lambda-frac", 0.1)?;
    let atb = match data {
        Data::Memory(ds) => ds.a.spmv_t(&ds.b),
        Data::Shards {
            store,
            budget,
            labels,
            ..
        } => {
            let man = store.manifest();
            let view = StreamingMatrix::from_store(store.clone(), *budget, (0, man.minor));
            let mut atb = vec![0.0; man.major];
            view.major_spmv_into(labels, &mut atb);
            atb
        }
    };
    Ok(frac * vecops::inf_norm(&atb))
}

/// A byte count with an optional binary K/M/G suffix (`64M` = 64·2²⁰).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("cannot parse {s:?} as a byte count"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("{s:?} overflows a u64 byte count"))
}

// ---------------------------------------------------------------------------
// The one solve body: parse → run → report.
// ---------------------------------------------------------------------------

/// A solve's configuration. `cfg` holds the options every family reads
/// (λ, `--s`, `--seed`, `--iters`, `--trace-every`; µ = 1 on the dual rows,
/// which sample one row per step): the Lasso config itself, and the
/// sampling provenance a `--model-out` artifact records.
struct Task {
    cfg: LassoConfig,
    reg: Lasso,
    kind: Kind,
}

/// What a [`Task`] runs beyond its shared options.
enum Kind {
    Lasso { accel: bool },
    Svm(SvmConfig),
    Kdcd(KdcdConfig),
}

/// The Lasso options, with the running subcommand's defaults. Every
/// solving row's synopsis states its `--s`, `--iters` and `--trace-every`
/// defaults; the dual rows take no `--mu` (one row per step: µ = 1).
fn lasso_cfg(args: &Args, lambda: f64) -> Result<LassoConfig, ArgError> {
    let sub = row(args);
    let stated = |name| {
        let missing = || panic!("saco {}: the synopsis states no --{name} default", sub.name);
        sub.default(name).unwrap_or_else(missing)
    };
    Ok(LassoConfig {
        mu: positive(args, "mu", sub.default("mu").unwrap_or(1))?,
        s: positive(args, "s", stated("s"))?,
        lambda,
        seed: args.get_or("seed", 42)?,
        max_iters: positive(args, "iters", stated("iters"))?,
        trace_every: args.get_or("trace-every", stated("trace-every"))?,
        rel_tol: args.get_opt("rel-tol")?,
        ..Default::default()
    })
}

impl Task {
    fn parse(args: &Args, data: &Data, family: Family) -> Result<Task, ArgError> {
        let lambda = resolve_lambda(args, data)?;
        let cfg = lasso_cfg(args, lambda)?;
        let loss = || match args.get("loss").unwrap_or("l1") {
            "l1" | "L1" => Ok(SvmLoss::L1),
            "l2" | "L2" => Ok(SvmLoss::L2),
            other => Err(ArgError(format!("--loss must be l1 or l2, got {other:?}"))),
        };
        let (s, seed, max_iters, trace_every) = (cfg.s, cfg.seed, cfg.max_iters, cfg.trace_every);
        let kind = match family {
            Family::Lasso => Kind::Lasso {
                accel: args.flag("acc"),
            },
            Family::Svm => Kind::Svm(SvmConfig {
                loss: loss()?,
                lambda,
                s,
                seed,
                max_iters,
                trace_every,
                gap_tol: args.get_opt("gap-tol")?,
            }),
            // `--kernel rbf:gamma=G | poly:d=D,gamma=G,coef0=C | linear`
            // (default `rbf:gamma=1`), parsed by `sparsela::KernelFn`.
            Family::Ksvm | Family::Kridge => Kind::Kdcd(KdcdConfig {
                task: match family {
                    Family::Ksvm => KdcdTask::Svm(loss()?),
                    _ => KdcdTask::Ridge,
                },
                kernel: sparsela::KernelFn::parse(args.get("kernel").unwrap_or("rbf:gamma=1"))
                    .map_err(|e| ArgError(format!("--kernel: {e}")))?,
                lambda,
                s,
                seed,
                max_iters,
                trace_every,
                cache_budget_bytes: parse_bytes(args.get("cache-budget").unwrap_or("64M"))
                    .map_err(|e| ArgError(format!("--cache-budget: {e}")))?
                    as usize,
            }),
        };
        let reg = Lasso::new(lambda);
        Ok(Task { cfg, reg, kind })
    }

    fn method(&self) -> Method<'_> {
        match &self.kind {
            &Kind::Lasso { accel } => Method::Lasso {
                reg: &self.reg,
                cfg: &self.cfg,
                accel,
            },
            Kind::Svm(cfg) => Method::Svm(cfg),
            Kind::Kdcd(cfg) => Method::Kdcd(cfg),
        }
    }

    /// The header every solve prints first: the subcommand with its loss
    /// or kernel; the engine and its ranks (rows with `--engine`) and the
    /// streaming budget; the shape, λ, µ, s and the iteration budget.
    fn print_header(&self, name: &str, engine: &Engine, data: &Data, engine_row: bool) {
        let variant = match &self.kind {
            Kind::Lasso { .. } => String::new(),
            Kind::Svm(c) => format!("-{:?}", c.loss),
            Kind::Kdcd(c) => format!("-{:?}", c.kernel),
        };
        let mut tags = Vec::new();
        if engine_row {
            tags.push(format!("engine {}", engine.name()));
            tags.extend(engine.ranks().map(|p| format!("{p} ranks")));
        }
        if let Data::Shards { budget, .. } = data {
            tags.push(format!("streaming, budget {budget} bytes"));
        }
        let tags = match tags.is_empty() {
            true => String::new(),
            false => format!(" ({})", tags.join(", ")),
        };
        let ((points, features), c) = (data.dims(), &self.cfg);
        println!(
            "{name}{variant}{tags}: {points} × {features}, λ = {:.6e}, µ = {}, s = {}, H = {}",
            c.lambda, c.mu, c.s, c.max_iters
        );
    }

    /// The result lines: the final objective under an engine summary,
    /// else the Lasso objective and support, the SVM duality gap and
    /// training accuracy, or the kernel dual objective with its cache and
    /// exchange counters.
    fn print_result(&self, out: &RunOutcome, data: &Data, engine_row: bool) {
        let res = out.result();
        let (value, iters) = (res.final_value(), res.iters);
        match &self.kind {
            Kind::Lasso { .. } if engine_row => println!("  final objective {value:.6e}"),
            Kind::Lasso { .. } => println!(
                "objective: {value:.6e} (from {:.6e}); nonzeros: {}/{}",
                res.trace.initial_value(),
                vecops::nnz_count(&res.x, 1e-10),
                res.x.len()
            ),
            Kind::Svm(cfg) => {
                let prob = saco::problem::SvmProblem::new(cfg.loss, cfg.lambda);
                let acc = data.dataset().map_or(String::new(), |ds| {
                    let acc = prob.accuracy(&ds.a, &ds.b, &res.x);
                    format!("; training accuracy: {acc:.4}")
                });
                println!("duality gap: {value:.6e} after {iters} iterations{acc}");
            }
            Kind::Kdcd(_) => {
                println!("dual objective: {value:.6e} after {iters} iterations");
                let (k, c) = (&out.kdcd[0], &out.kdcd[0].cache);
                let rate = 100.0 * c.hits as f64 / (c.hits + c.misses).max(1) as f64;
                println!(
                    "kernel cache: {} hits / {} misses ({rate:.1}% hit) | {} evictions | {} resident bytes",
                    c.hits, c.misses, c.evictions, k.cache_resident_bytes
                );
                println!(
                    "exchanges: {} words moved | {} all-hit rounds skipped the allreduce",
                    k.exchange_words, k.exchange_skipped
                );
            }
        }
    }
}

/// The one solve body: parse the row's engine, data and [`Task`], then run
/// it — in this process, as one rank of `saco launch` (`_netrank`), or
/// across launched rank processes (`launch`) — and report: header, engine
/// summary (rows with `--engine`), result, I/O, then the output tail.
fn solve(
    args: &Args,
    sub: &Subcommand,
    family: Family,
    default_engine: Option<&str>,
) -> Result<(), ArgError> {
    let (engine, data) = parse_run(args, sub, family, default_engine)?;
    let pm1 = data.labels().iter().all(|&b| b == 1.0 || b == -1.0);
    if matches!(family, Family::Svm | Family::Ksvm) && !pm1 {
        return Err(ArgError(format!("{} needs ±1 labels", sub.name)));
    }
    let task = Task::parse(args, &data, family)?;
    let resumable = matches!(task.kind, Kind::Lasso { accel: false });
    let resumable = resumable && args.get("model-out").is_some();
    if resumable && args.get("rel-tol").is_some() {
        let why = "a resumable artifact trains exactly --iters; drop --rel-tol or add --acc";
        return Err(ArgError(format!(
            "--rel-tol cannot stop a --model-out solve: {why}"
        )));
    }
    let spec = RunSpec::new(task.method(), engine, data.source());
    if sub.name == "_netrank" {
        return solve_rank(args, &spec, &data);
    }
    let engine_row = default_engine.is_some();
    task.print_header(sub.name, &engine, &data, engine_row);
    if sub.name == "launch" {
        return launch(args, &engine);
    }
    let (out, trained) = match data.dataset().filter(|_| resumable) {
        Some(ds) => train_resumable(&spec, ds)?,
        None => (run(&spec)?, None),
    };
    if engine_row {
        let secs = out.report.map_or(out.wall_secs, |rep| rep.running_time());
        print_summary(&engine, secs, out.report, &out.telemetry, "");
    }
    task.print_result(&out, &data, engine_row);
    print_io(&out.io);
    // Score-only unless trained resumable: an accelerated Lasso iterate has
    // no single warm-startable residual chain, and kernel duals are
    // inspect-only (the server's score path refuses them).
    let res = out.result();
    let model = data.dataset().filter(|_| args.get("model-out").is_some());
    let model = model.map(|ds| {
        trained.unwrap_or_else(|| {
            let family = match sub.name {
                "lasso" => "lasso-acc",
                dual => dual,
            };
            let (first, last) = (res.trace.initial_value(), res.final_value());
            let (x, lambda) = (res.x.clone(), task.cfg.lambda);
            ModelArtifact::from_solution(family, ds, &task.cfg, lambda, x, res.iters, first, last)
        })
    });
    finish(args, out.run_report(), model, &res.x)
}

/// A non-`--acc` Lasso with `--model-out`: `ModelArtifact::train_lasso`
/// runs the same driver as `sa_bcd` — bitwise the same solve — but also
/// captures the residual bits and sampling provenance `saco serve` needs
/// to resume training. Returned with the outcome the report reads.
fn train_resumable(
    spec: &RunSpec<'_>,
    ds: &Dataset,
) -> Result<(RunOutcome, Option<ModelArtifact>), ArgError> {
    let Method::Lasso { reg, cfg, .. } = spec.method else {
        unreachable!("only the Lasso family trains a resumable artifact");
    };
    cfg.check(ds.num_features()).map_err(RunError::Config)?;
    let t0 = Instant::now();
    let art = ModelArtifact::train_lasso(ds, reg, cfg.lambda, cfg);
    let mut trace = ConvergenceTrace::new();
    trace.push(0, art.initial_obj, 0.0);
    trace.push(art.iters, art.final_obj, 0.0);
    let mut telemetry = Registry::new();
    telemetry.set_meta("solver", spec.solver_name());
    telemetry.counter_add("solver.iterations", art.iters as u64);
    let (x, iters) = (art.x.clone(), art.iters);
    let out = RunOutcome {
        results: vec![SolveResult { x, trace, iters }],
        kdcd: Vec::new(),
        report: None,
        telemetry,
        io: Vec::new(),
        wall_secs: t0.elapsed().as_secs_f64(),
        engine: spec.engine.name(),
    };
    Ok((out, Some(art)))
}

/// The engine summary under the header of a row with `--engine`: the
/// clock line (`note` qualifies it), then the modeled critical-path costs
/// (sim), the measured wire totals (net) and the injected chaos.
fn print_summary(engine: &Engine, secs: f64, costs: Option<CostReport>, t: &Registry, note: &str) {
    let (clock, kind) = match engine {
        Engine::Sim { .. } => ("running time", "simulated"),
        Engine::Seq | Engine::Net { .. } => ("wall time", "measured"),
    };
    println!("  {clock}: {secs:.6} s ({kind}{note})");
    if let Some(c) = costs.map(|rep| rep.critical) {
        println!(
            "  compute {:.6} s | communicate {:.6} s | idle {:.6} s",
            c.comp_time, c.comm_time, c.idle_time
        );
        println!(
            "  messages {} | words {} | flops {}",
            c.messages, c.words, c.flops
        );
    }
    if matches!(engine, Engine::Net { .. }) {
        println!(
            "  in collectives {:.6} s | of which wait {:.6} s",
            t.gauge("net.comm.wall_secs").unwrap_or(0.0),
            t.gauge("net.wait.wall_secs").unwrap_or(0.0),
        );
        println!(
            "  bytes {} | frames {} | collectives {} | reconnects {}",
            t.counter("net.bytes_tx"),
            t.counter("net.frames_tx"),
            t.counter("net.collectives"),
            t.counter("net.reconnects"),
        );
    }
    if matches!(engine, Engine::Sim { chaos: Some(_), .. }) {
        println!(
            "  chaos: {} stalls ({:.6} s) | jitter {:.6} s | skew {:.6} s | {} failures (recovery {:.6} s)",
            t.counter("chaos.stalls"),
            t.gauge("chaos.stall_time").unwrap_or(0.0),
            t.gauge("chaos.jitter_time").unwrap_or(0.0),
            t.gauge("chaos.skew_time").unwrap_or(0.0),
            t.counter("chaos.failures"),
            t.gauge("chaos.recovery_time").unwrap_or(0.0),
        );
    }
}

/// One human line summarizing streaming I/O across views (none for an
/// in-memory run): counters add, the resident high-water mark is the
/// per-view maximum.
fn print_io(stats: &[IoStats]) {
    if stats.is_empty() {
        return;
    }
    let bytes: u64 = stats.iter().map(|s| s.bytes_read).sum();
    let hits: u64 = stats.iter().map(|s| s.prefetch_hits).sum();
    let misses: u64 = stats.iter().map(|s| s.prefetch_misses).sum();
    let hidden: f64 = stats.iter().map(|s| s.hidden_secs).sum();
    let hwm = stats
        .iter()
        .map(|s| s.resident_hwm_bytes)
        .max()
        .unwrap_or(0);
    println!(
        "  io: {bytes} bytes read | prefetch {hits} hits / {misses} misses | \
         {hidden:.6} s hidden behind compute | resident hwm {hwm} bytes"
    );
}

/// The one output tail: `--metrics` writes the run report (stamped with
/// the dataset and the host-pool gauges), `--model-out` the artifact,
/// `--out` the iterate.
fn finish(
    args: &Args,
    mut report: Registry,
    model: Option<ModelArtifact>,
    x: &[f64],
) -> Result<(), ArgError> {
    if let Some(path) = args.get("metrics") {
        report.set_meta("dataset", args.require("data")?);
        // Pool activity gauges are host measurements: they vary with
        // --threads (and machine load) while the deterministic sections of
        // the report stay bitwise identical.
        let (nthreads, pool) = (saco_par::threads(), saco_par::stats());
        report.gauge_set("par.threads", nthreads as f64);
        report.gauge_set("par.regions", pool.regions as f64);
        report.gauge_set("par.tiles", pool.tiles as f64);
        report.gauge_set("par.utilization", pool.utilization(nthreads));
        mpisim::telemetry::write_run_report(&report, Path::new(path))
            .map_err(|e| ArgError(format!("write {path}: {e}")))?;
        println!("metrics written to {path}");
    }
    if let Some((art, path)) = model.zip(args.get("model-out")) {
        art.save(Path::new(path))
            .map_err(|e| ArgError(format!("write model {path}: {e}")))?;
        let kind = match art.resumable() {
            true => "resumable",
            false => "score-only",
        };
        println!(
            "model artifact ({kind}, {} iters) written to {path}",
            art.iters
        );
    }
    write_weights(args, x)
}

/// `saco launch`: spawn `--p` rank processes, each this binary's hidden
/// `_netrank` given this command line minus what only the parent reads
/// (`--rundir`, `--metrics`) plus its `--rank`, its `--report` and the
/// resolved `--rendezvous`; wait for all of them and merge their reports.
fn launch(args: &Args, engine: &Engine) -> Result<(), ArgError> {
    let p = engine.ranks().expect("launch runs engine net");
    let rundir = match args.get("rundir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("saco-launch-{}", std::process::id())),
    };
    std::fs::create_dir_all(&rundir)
        .map_err(|e| ArgError(format!("create {}: {e}", rundir.display())))?;
    let rendezvous = match args.get("rendezvous") {
        Some(r) => r.to_string(),
        None => format!("unix:{}", rundir.join("rendezvous.sock").display()),
    };
    Addr::parse(&rendezvous).map_err(|e| ArgError(format!("--rendezvous: {e}")))?;
    let exe = std::env::current_exe().map_err(|e| ArgError(format!("current_exe: {e}")))?;
    println!("launching {p} rank processes (rendezvous {rendezvous})");
    let forwarded = args.forward(&["rundir", "metrics", "rendezvous"]);
    let mut children = Vec::with_capacity(p);
    for rank in 0..p {
        let child = std::process::Command::new(&exe)
            .arg("_netrank")
            .args(&forwarded)
            .args(["--rank", &rank.to_string(), "--rendezvous", &rendezvous])
            .arg("--report")
            .arg(rundir.join(format!("rank{rank}.json")))
            .spawn()
            .map_err(|e| ArgError(format!("spawn rank {rank}: {e}")))?;
        children.push((rank, child));
    }
    // Fail-stop: a dead rank closes its sockets, so surviving ranks see
    // typed Closed/Timeout errors and exit instead of hanging — waiting
    // in rank order cannot deadlock.
    let failed: Vec<usize> = children
        .into_iter()
        .filter_map(|(rank, mut child)| (!child.wait().is_ok_and(|s| s.success())).then_some(rank))
        .collect();
    if !failed.is_empty() {
        return Err(ArgError(format!(
            "ranks {failed:?} exited nonzero (see stderr above); per-rank reports in {}",
            rundir.display()
        )));
    }
    let mut ranks = Vec::with_capacity(p);
    for rank in 0..p {
        let path = rundir.join(format!("rank{rank}.json"));
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| ArgError(format!("read {}: {e}", path.display())))?;
        let summary = parse_summary(&doc)
            .ok_or_else(|| ArgError(format!("malformed run report {}", path.display())))?;
        let mut reg = Registry::new();
        summary.apply_to(&mut reg);
        ranks.push(reg);
    }
    let merged = merge_rank_registries(&ranks);
    println!("all {p} ranks finished:");
    let wall = merged.gauge("time.wall_secs").unwrap_or(0.0);
    print_summary(engine, wall, None, &merged, ", max over ranks");
    println!(
        "  final objective {:.6e}",
        merged.gauge("objective.final").unwrap_or(f64::NAN)
    );
    println!("per-rank reports in {}", rundir.display());
    finish(args, merged, None, &[])
}

/// `_netrank`, one rank process of `saco launch`: joins the mesh at
/// `--rendezvous`, solves its `--rank`-th partition of the parent's
/// command line, and writes its `saco-telemetry/v1` report to `--report`.
fn solve_rank(args: &Args, spec: &RunSpec<'_>, data: &Data) -> Result<(), ArgError> {
    let (Engine::Net { p, balanced }, Some(ds)) = (spec.engine, data.dataset()) else {
        unreachable!("launch rows run engine net on a LIBSVM file");
    };
    let rank: usize = args
        .require("rank")?
        .parse()
        .map_err(|_| ArgError("--rank: not a rank index".into()))?;
    let rendezvous = Addr::parse(args.require("rendezvous")?)
        .map_err(|e| ArgError(format!("--rendezvous: {e}")))?;
    let report = args.require("report")?;
    // Every rank loads the shared file and takes its own row block — the
    // same deterministic split the in-process engines use, so `launch`
    // reproduces their iterates exactly.
    let (_, blocks) = LassoRankData::split(ds, p, balanced);
    let net_cfg = NetConfig {
        rank,
        size: p,
        rendezvous,
        io_timeout: Duration::from_secs(args.get_or("io-timeout", 30)?),
        connect: Backoff::default(),
    };
    let mut comm = NetComm::establish(net_cfg)
        .map_err(|e| ArgError(format!("rank {rank}/{p}: mesh establish: {e}")))?;
    let (setup, t0) = (comm.stats(), Instant::now());
    let (res, _) = run_rank(&spec.method, &mut comm, RankData::Lasso(&blocks[rank]))?;
    let wall = t0.elapsed().as_secs_f64();
    let mut telemetry = net_rank_telemetry(&spec.solver_name(), &comm, &setup, wall);
    telemetry.set_meta("dataset", args.require("data")?);
    telemetry.gauge_set("objective.final", res.final_value());
    telemetry.gauge_set("time.wall_secs", wall);
    mpisim::telemetry::write_run_report(&telemetry, Path::new(report))
        .map_err(|e| ArgError(format!("write {report}: {e}")))?;
    comm.shutdown();
    Ok(())
}

// ---------------------------------------------------------------------------
// Out-of-core data (`saco shard`)
// ---------------------------------------------------------------------------
/// Synthesize a paper stand-in by registry name (the `generate` source).
fn synth_dataset(args: &Args, name: &str) -> Result<Dataset, ArgError> {
    let ds_enum = PaperDataset::ALL
        .iter()
        .find(|d| d.info().name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = PaperDataset::ALL.iter().map(|d| d.info().name).collect();
            ArgError(format!("unknown dataset {name:?}; choose from {names:?}"))
        })?;
    let scale = args.get_or("scale", 1.0)?;
    let seed = args.get_or("seed", 42)?;
    Ok(ds_enum.generate(scale, seed).dataset)
}

/// `saco shard`: convert a LIBSVM file (`--data`) or a synthetic paper
/// stand-in (`--dataset`, as in `generate`) into an on-disk shard
/// directory. `--axis csc` (default) feeds the Lasso solvers, `--axis
/// csr` the SVM; the nnz-aware planner packs at most `--shards` chunks
/// with balanced nonzeros. `--verify` re-opens the store and compares
/// every slice and label bitwise against the source matrix.
fn cmd_shard(args: &Args) -> Result<(), ArgError> {
    let out = args.require("out")?;
    let axis = match args.get("axis").unwrap_or("csc") {
        "csc" => ShardAxis::Csc,
        "csr" => ShardAxis::Csr,
        other => {
            return Err(ArgError(format!(
                "--axis must be csc or csr, got {other:?}"
            )))
        }
    };
    let nshards = args.get_or("shards", 64)?;
    if nshards == 0 {
        return Err(ArgError("--shards must be at least 1".into()));
    }
    let ds = if args.get("data").is_some() {
        load(args)?
    } else if let Some(name) = args.get("dataset") {
        synth_dataset(args, name)?
    } else {
        return Err(ArgError(
            "shard needs --data <file.svm> or --dataset <name>".into(),
        ));
    };
    let dir = Path::new(out);
    let t0 = Instant::now();
    let csc = (axis == ShardAxis::Csc).then(|| ds.a.to_csc());
    let manifest = match &csc {
        Some(c) => write_csc(dir, c, &shard_plan(&slice_nnz(c), nshards), Some(&ds.b)),
        None => write_csr(
            dir,
            &ds.a,
            &shard_plan(&slice_nnz(&ds.a), nshards),
            Some(&ds.b),
        ),
    }
    .map_err(|e| ArgError(format!("write shards to {out}: {e}")))?;
    println!(
        "sharded {} × {} ({} nnz) into {} {}-axis shards in {:.3} s",
        ds.num_points(),
        ds.num_features(),
        ds.a.nnz(),
        manifest.shards.len(),
        if axis == ShardAxis::Csc { "csc" } else { "csr" },
        t0.elapsed().as_secs_f64()
    );
    println!(
        "  {} bytes on disk | nnz imbalance {:.4} (max/min shard)",
        manifest.disk_bytes(),
        manifest.nnz_imbalance()
    );
    if args.flag("verify") {
        let store = ShardStore::open(dir).map_err(|e| ArgError(format!("reopen {out}: {e}")))?;
        match &csc {
            Some(c) => verify_store(&store, c),
            None => verify_store(&store, &ds.a),
        }
        .map_err(|e| ArgError(format!("verify {out}: {e}")))?;
        let labels = store
            .read_labels()
            .map_err(|e| ArgError(format!("verify {out}: {e}")))?;
        if labels != ds.b {
            return Err(ArgError(format!("verify {out}: labels differ")));
        }
        println!("  verify: OK — every slice and label round-trips bitwise");
    }
    let solver = if axis == ShardAxis::Csc {
        "lasso"
    } else {
        "svm"
    };
    println!("solve out-of-core with `saco {solver} --data shard:{out}`");
    Ok(())
}

fn cmd_path(args: &Args) -> Result<(), ArgError> {
    let ds = load(args)?;
    let cfg = lasso_cfg(args, 0.0)?;
    let num = args.get_or("num", 16)?;
    let ratio = args.get_or("ratio", 0.01)?;
    let path = lasso_path(&ds, &cfg, num, ratio, Lasso::new);
    println!("  lambda        nonzeros   objective");
    for p in &path.points {
        println!(
            "  {:.6e}   {:>7}   {:.6e}",
            p.lambda, p.nonzeros, p.objective
        );
    }
    if let Some(target) = args.get_opt::<usize>("select-support")? {
        let sel = path.select_by_support(target);
        println!(
            "selected λ = {:.6e} with {} nonzeros (target {target})",
            sel.lambda, sel.nonzeros
        );
        write_weights(args, &sel.x)?;
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), ArgError> {
    let name = args.require("dataset")?;
    let ds = synth_dataset(args, name)?;
    let out = args.require("out")?;
    let mut w =
        BufWriter::new(File::create(out).map_err(|e| ArgError(format!("create {out}: {e}")))?);
    write_libsvm(&mut w, &ds).map_err(|e| ArgError(format!("write {out}: {e}")))?;
    println!(
        "wrote {} ({} × {}, {} nnz) to {out}",
        name,
        ds.num_points(),
        ds.num_features(),
        ds.a.nnz()
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), ArgError> {
    if let Some(dir) = shard_dir(args) {
        let store = ShardStore::open(Path::new(dir))
            .map_err(|e| ArgError(format!("open shard store {dir}: {e}")))?;
        let man = store.manifest();
        let (rows, cols) = manifest_dims(&store);
        println!("shard store: {dir}");
        println!("axis:      {:?}", man.axis);
        println!("points:    {rows}");
        println!("features:  {cols}");
        println!("nnz:       {}", man.nnz);
        println!("shards:    {}", man.shards.len());
        println!("bytes:     {}", man.disk_bytes());
        println!("imbalance: {:.4} (max/min shard nnz)", man.nnz_imbalance());
        println!(
            "labels:    {}",
            if man.has_labels { "present" } else { "absent" }
        );
        return Ok(());
    }
    let ds = load(args)?;
    let a = &ds.a;
    println!("points:    {}", a.rows());
    println!("features:  {}", a.cols());
    println!("nnz:       {} ({:.4}%)", a.nnz(), 100.0 * a.density());
    let row_nnz = a.row_nnz_counts();
    let max_row = row_nnz.iter().max().copied().unwrap_or(0);
    println!(
        "row nnz:   mean {:.1}, max {max_row}",
        a.nnz() as f64 / a.rows().max(1) as f64
    );
    let pm1 = ds.b.iter().all(|&b| b == 1.0 || b == -1.0);
    println!(
        "labels:    {}",
        if pm1 {
            "±1 (classification)"
        } else {
            "real (regression)"
        }
    );
    if a.rows().min(a.cols()) <= 512 {
        let (smin, smax) = sparsela::svdest::singular_value_range(a);
        println!(
            "σ range:   [{smin:.4e}, {smax:.4e}] (exact; paper's λ rule = 100σ_min = {:.4e})",
            100.0 * smin
        );
    }
    Ok(())
}

fn cmd_cv(args: &Args) -> Result<(), ArgError> {
    let ds = load(args)?;
    let cfg = lasso_cfg(args, 0.0)?;
    let k = args.get_or("folds", 5)?;
    let num = args.get_or("num", 12)?;
    let ratio = args.get_or("ratio", 0.01)?;
    println!(
        "{k}-fold CV over {num} λ values on {} × {}",
        ds.num_points(),
        ds.num_features()
    );
    let cv = saco::crossval::cross_validate_lasso(&ds, &cfg, k, num, ratio, Lasso::new);
    println!("  lambda        mean MSE      std err");
    for p in &cv.points {
        println!(
            "  {:.6e}   {:.6e}   {:.2e}",
            p.lambda, p.mean_mse, p.std_error
        );
    }
    println!(
        "best λ = {:.6e}; 1-SE λ = {:.6e}",
        cv.best_lambda(),
        cv.lambda_1se()
    );
    if cv.nan_folds > 0 {
        println!(
            "  {} non-finite fold cells ranked last (never selected); \
             see cv.nan_folds in the run report",
            cv.nan_folds
        );
    }
    let mut telemetry = Registry::new();
    telemetry.set_meta("engine", "sequential");
    telemetry.set_meta("cli.engine", "seq");
    telemetry.set_meta("solver", "cv_lasso");
    saco::crossval::record_cv_stats(&mut telemetry, &cv, k);
    finish(args, telemetry, None, &[])
}

/// `saco serve`: load a `saco-model/v1` artifact plus the dataset it was
/// trained on, listen on `--listen`, and answer score/train-delta/λ-path
/// requests until Shutdown (or `--max-requests`), each on its
/// connection's own thread; `--chaos` injects deterministic admission
/// stragglers for tail-latency drills.
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let default_iters = args.get_or("train-iters", 512)?;
    if default_iters > MAX_REQUEST_ITERS {
        return Err(ArgError(format!(
            "--train-iters {default_iters} exceeds the per-request bound {MAX_REQUEST_ITERS}"
        )));
    }
    let mpath = args.require("model")?;
    let art = ModelArtifact::load(Path::new(mpath))
        .map_err(|e| ArgError(format!("load model {mpath}: {e}")))?;
    let ds = load(args)?;
    let listen = args.require("listen")?;
    let addr = Addr::parse(listen).map_err(|e| ArgError(format!("--listen: {e}")))?;
    let scfg = ServeConfig {
        slo_ms: args.get_or("slo-ms", 250.0)?,
        default_iters,
        chaos: parse_chaos(args)?,
        max_requests: args.get_opt("max-requests")?,
    };
    let listener =
        saco::serve::Listener::bind(&addr).map_err(|e| ArgError(format!("bind {listen}: {e}")))?;
    println!(
        "serving {} model ({} × {}, λ = {:.6e}, {}) on {listen} — SLO {} ms",
        art.family,
        art.m,
        art.n,
        art.lambda,
        if art.resumable() {
            "resumable"
        } else {
            "score-only"
        },
        scfg.slo_ms
    );
    let mut telemetry = Registry::new();
    let report = saco::serve::serve(&listener, &ds, art, &scfg, &mut telemetry)
        .map_err(|e| ArgError(format!("serve: {e}")))?;
    println!(
        "served {} requests | p99 {:.3} ms | {} SLO breaches | {} protocol errors",
        report.requests, report.p99_ms, report.slo_breaches, report.protocol_errors
    );
    telemetry.set_meta("engine", "serve");
    telemetry.set_meta("cli.engine", "serve");
    telemetry.set_meta("solver", "serve");
    finish(args, telemetry, None, &[])
}
