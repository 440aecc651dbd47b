//! `saco` — command-line frontend for the synchronization-avoiding solvers.
//!
//! `saco help` prints every subcommand with its synopsis; both come from
//! the [`SUBCOMMANDS`] table below, which is also what rejects an option a
//! subcommand does not read.
mod args;

use args::{ArgError, Args};
use datagen::{shard_plan, slice_nnz, PaperDataset};
use mpisim::telemetry::report::parse_summary;
use mpisim::telemetry::Registry;
use mpisim::CostModel;
use saco::net::{Addr, Backoff, LassoRankData, NetComm, NetConfig};
use saco::path::lasso_path;
use saco::prox::Lasso;
use saco::run::{
    merge_rank_registries, net_rank_telemetry, open_store, run, run_rank, Engine, Method, RankComm,
    RankData, RunError, RunOutcome, RunSpec, Source,
};
use saco::serve::{ModelArtifact, ServeConfig};
use saco::{KdcdConfig, KdcdStats, KdcdTask, LassoConfig, SvmConfig, SvmLoss};
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

/// A `saco` subcommand: where it dispatches, its line in `saco help`, and
/// its synopsis. The synopsis is also the option whitelist — a subcommand
/// accepts exactly the `--name`s written there (plus the process-wide
/// `--threads`), so a misspelt or retired option fails before any file is
/// opened instead of being silently ignored.
struct Subcommand {
    name: &'static str,
    /// Empty for the hidden `_netrank` child.
    about: &'static str,
    synopsis: &'static str,
    run: fn(&Args) -> Result<(), ArgError>,
}

impl Subcommand {
    fn accepts(&self, option: &str) -> bool {
        option == "threads"
            || self
                .synopsis
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|tok| tok.strip_prefix("--") == Some(option))
    }
}

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "lasso",
        about: "train a Lasso model on a LIBSVM file",
        synopsis: "--data train.svm|shard:DIR [--lambda X | --lambda-frac 0.1] [--mu 8]
                [--s 16] [--iters 10000] [--seed 42] [--acc] [--rel-tol T]
                [--trace-every 0] [--mem-budget 256M] [--metrics report.json]
                [--model-out m.saco] [--out w.txt]",
        run: cmd_lasso,
    },
    Subcommand {
        name: "svm",
        about: "train a linear SVM (dual coordinate descent)",
        synopsis: "--data train.svm|shard:DIR [--loss l1|l2] [--lambda 1] [--s 64]
                [--iters 100000] [--seed 42] [--gap-tol 0.1] [--trace-every 1000]
                [--mem-budget 256M] [--metrics report.json] [--model-out m.saco]
                [--out w.txt]",
        run: cmd_svm,
    },
    Subcommand {
        name: "ksvm",
        about: "train a kernel SVM (K-DCD: cached on-demand kernel rows,
            any --engine; all-hit blocks skip the allreduce)",
        synopsis: "--data train.svm|shard:DIR [--kernel rbf:gamma=G|poly:d=D|linear]
                [--loss l1|l2] [--lambda 1] [--s 8] [--iters 10000] [--seed 42]
                [--trace-every 0] [--cache-budget 64M] [--engine seq|sim|dist|net]
                [--p 4] [--balanced] [--chaos spec] [--mem-budget 256M]
                [--metrics report.json] [--model-out m.saco] [--out alpha.txt]",
        run: |args| cmd_kdcd(args, true),
    },
    Subcommand {
        name: "kridge",
        about: "kernel ridge regression in the dual (K-BDCD)",
        synopsis: "--data train.svm|shard:DIR [--kernel rbf:gamma=G|poly:d=D|linear]
                [--lambda 0.5] [--s 8] [--iters 10000] [--seed 42] [--trace-every 0]
                [--cache-budget 64M] [--engine seq|sim|dist|net] [--p 4] [--balanced]
                [--chaos spec] [--mem-budget 256M] [--metrics report.json]
                [--model-out m.saco] [--out alpha.txt]",
        run: |args| cmd_kdcd(args, false),
    },
    Subcommand {
        name: "path",
        about: "compute a warm-started regularization path",
        synopsis: "--data train.svm [--num 16] [--ratio 0.01] [--mu 8] [--s 16]
                [--iters 10000] [--seed 42] [--rel-tol T] [--trace-every 0]
                [--select-support K [--out w.txt]]",
        run: cmd_path,
    },
    Subcommand {
        name: "generate",
        about: "write a synthetic stand-in for a paper dataset",
        synopsis: "--dataset url --out file.svm [--scale 1.0] [--seed 42]",
        run: cmd_generate,
    },
    Subcommand {
        name: "shard",
        about: "convert a dataset into an on-disk shard directory for
            out-of-core streaming (--verify round-trips bitwise)",
        synopsis: "--data file.svm | --dataset url [--scale 1.0] [--seed 42] --out DIR
                [--axis csc|csr] [--shards 64] [--verify]",
        run: cmd_shard,
    },
    Subcommand {
        name: "info",
        about: "print dataset statistics",
        synopsis: "--data file.svm|shard:DIR",
        run: cmd_info,
    },
    Subcommand {
        name: "simulate",
        about: "run a solver on a chosen execution engine and report costs
            (--metrics <path> writes a saco-telemetry/v1 JSON run report)",
        synopsis: "--data train.svm|shard:DIR [--engine seq|sim|dist|net] [--p P]
                [--lambda X | --lambda-frac 0.1] [--s 16] [--mu 1] [--iters 2000]
                [--seed 42] [--acc] [--balanced] [--rel-tol T] [--trace-every 0]
                [--mem-budget 256M] [--metrics report.json]
                [--chaos seed=7,skew=0.2,jitter=1e-4,straggle=0.05,fail=3@10]",
        run: cmd_simulate,
    },
    Subcommand {
        name: "launch",
        about: "spawn --p real OS rank processes over a TCP/Unix socket mesh,
            solve, and merge the per-rank run reports (measured time)",
        synopsis: "--data train.svm [--p 4] [--engine net] [--lambda X | --lambda-frac 0.1]
                [--s 16] [--mu 1] [--iters 2000] [--seed 42] [--acc] [--balanced]
                [--rel-tol T] [--trace-every 0] [--rendezvous tcp:HOST:PORT]
                [--rundir DIR] [--io-timeout 30] [--metrics merged.json]",
        run: cmd_launch,
    },
    Subcommand {
        name: "_netrank",
        about: "",
        synopsis: "--rank R --p P --rendezvous ADDR --report rank.json --data train.svm
                --lambda X [--s 16] [--mu 1] [--iters 2000] [--seed 42] [--acc]
                [--balanced] [--rel-tol T] [--trace-every 0] [--io-timeout 30]",
        run: cmd_netrank,
    },
    Subcommand {
        name: "cv",
        about: "k-fold cross-validated λ path",
        synopsis: "--data train.svm [--folds 5] [--num 12] [--ratio 0.01] [--mu 8]
                [--s 16] [--iters 10000] [--seed 42] [--rel-tol T] [--trace-every 0]
                [--metrics report.json]",
        run: cmd_cv,
    },
    Subcommand {
        name: "serve",
        about: "answer score/train-delta/λ-path requests for a trained
            --model artifact over a TCP/Unix socket (--listen), with
            cost-model batching and serve.* SLO telemetry",
        synopsis: "--model m.saco --data train.svm --listen unix:/tmp/s.sock
                [--slo-ms 250] [--batch-max 64] [--train-iters 512] [--chaos spec]
                [--max-requests N] [--metrics report.json]",
        run: cmd_serve,
    },
    Subcommand {
        name: "help",
        about: "this message",
        synopsis: "",
        run: |_| {
            print_usage();
            Ok(())
        },
    },
];

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
    if let Err(e) = (sub.run)(&args) {
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
`--model-out <path>` (lasso, svm, ksvm, kridge) writes a saco-model/v1
artifact. A non---acc lasso artifact is resumable: it stores the
residual bits + sampling provenance, so `saco serve` continues training
bitwise identically to an uncut run. Other families are score-only
(kernel duals are inspect-only — they cannot be scored linearly).

`--engine seq|sim|dist|net` (simulate; default sim) picks the backend:
seq = sequential reference, sim = modeled virtual cluster (α-β-γ cost
model), dist = thread-backed message-passing machine, net = in-process
socket mesh with measured wall-clock time. All engines produce the same
iterates; `saco launch` runs engine net across real processes.

`--threads N` (or SACO_THREADS=N) runs the shared-memory kernels on N
pooled workers; results are bitwise identical at any thread count.

`--chaos seed=S,skew=X,jitter=Y,straggle=F,fail=RANK@STEP` (--engine sim
only) injects a seeded, replayable straggler/jitter/failure plan into
the virtual cluster. Chaos perturbs time, never values: the solver
output stays bitwise identical to the chaos-free run, and the run
report gains `chaos.*` counters and gauges.

`--data shard:<dir>` (lasso, svm, ksvm, kridge, info, simulate) streams
the solve out-of-core from a `saco shard` directory under a `--mem-budget`
resident cap (default 256M; binary K/M/G suffixes). The sampler runs
one block ahead so the loader prefetches behind compute; the iterates
stay bitwise identical to the in-memory run."
    );
}

fn load(args: &Args) -> Result<Dataset, ArgError> {
    let path = args.require("data")?;
    if shard_dir(args).is_some() {
        return Err(ArgError(format!(
            "--data {path}: shard directories stream through lasso, svm, ksvm, kridge, \
             info, and simulate; this subcommand needs a LIBSVM file"
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
/// resident byte cap (default 256M; per view — each rank of a dist/net
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

    /// The marker streamed runs carry in their header line.
    fn stream_tag(&self) -> String {
        match self {
            Data::Memory(_) => String::new(),
            Data::Shards { budget, .. } => format!(" (streaming, budget {budget} bytes)"),
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

/// `--p` of a socket mesh, in-process or launched (default 4, at most
/// `max`: one endpoint per rank).
fn parse_mesh(args: &Args, max: usize) -> Result<usize, ArgError> {
    match args.get_or("p", 4)? {
        p if p == 0 || p > max => Err(ArgError(format!(
            "a socket mesh runs one endpoint per rank; --p must be 1..={max}, got {p}"
        ))),
        p => Ok(p),
    }
}

/// `--engine` by name plus the flags that parameterize it.
fn parse_engine(args: &Args, name: &str) -> Result<Engine, ArgError> {
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
        "dist" => Engine::Dist {
            p: positive(args, "p", 4)?,
            model,
            balanced,
        },
        "net" => Engine::Net {
            p: parse_mesh(args, 64)?,
            balanced,
        },
        other => {
            return Err(ArgError(format!(
                "--engine must be seq|sim|dist|net, got {other:?}"
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

/// The one place a command line becomes a run surface. `default_engine`
/// is the subcommand's `--engine` default (`None`: the subcommand has no
/// engine flag and runs sequentially); `axis` is what its method samples
/// — a shard store of the other axis is rejected with re-shard advice.
fn parse_run(
    args: &Args,
    default_engine: Option<&str>,
    axis: ShardAxis,
) -> Result<(Engine, Data), ArgError> {
    let name = default_engine.map_or("seq", |d| args.get("engine").unwrap_or(d));
    let engine = parse_engine(args, name)?;
    let Some(dir) = shard_dir(args) else {
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
    let store = open_store(Path::new(dir), axis)?;
    let labels = store
        .read_labels()
        .map_err(|e| ArgError(format!("read labels from {dir}: {e}")))?;
    let dir = PathBuf::from(dir);
    Ok((
        engine,
        Data::Shards {
            dir,
            budget,
            store,
            labels,
        },
    ))
}

/// A typed run error, rendered for the terminal.
impl From<RunError> for ArgError {
    fn from(e: RunError) -> Self {
        ArgError(e.to_string())
    }
}

/// λ from `--lambda`, else `--lambda-frac` (default 0.1) of ‖Aᵀb‖∞. On a
/// shard store (CSC axis: the major slices *are* the columns) one
/// transient pass of [`SliceSource::major_spmv_into`] computes Aᵀb on a
/// throwaway view, so the solve's I/O counters start clean.
fn resolve_lambda(args: &Args, data: &Data) -> Result<f64, ArgError> {
    if let Some(l) = args.get_opt::<f64>("lambda")? {
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

/// The per-engine summary vocabulary, one row per engine: the title
/// `simulate` prints, what the engine's clock is called, and how its time
/// is qualified.
fn engine_view(engine: &Engine, streaming: bool) -> (String, &'static str, &'static str) {
    let st = if streaming { ", streaming" } else { "" };
    match engine {
        Engine::Seq => {
            let title = format!("sequential (engine seq{st})");
            (title, "wall time", "measured")
        }
        Engine::Sim { p, .. } => {
            let st = if streaming { " (streaming)" } else { "" };
            let title = format!("simulated {p} ranks{st}");
            (title, "running time", "simulated")
        }
        Engine::Dist { p, .. } => {
            let title = format!("thread machine (engine dist{st}), {p} ranks");
            (title, "running time", "modeled")
        }
        Engine::Net { p, .. } => {
            let title = format!("socket mesh (engine net{st}), {p} ranks");
            (title, "wall time", "measured")
        }
    }
}

/// The per-engine run summary: the clock line, then the modeled
/// critical-path costs (sim, dist) or the measured wire totals (net).
/// `titled` summaries (`simulate`) already named the engine and its
/// rank count on a title line; the others qualify the clock line instead.
fn print_engine_summary(engine: &Engine, out: &RunOutcome, titled: bool) {
    let (_, clock, kind) = engine_view(engine, false);
    let mut tags = Vec::new();
    // `simulate --engine sim` is the one summary that never qualified
    // its clock: simulated time is that engine's whole point.
    if !(titled && matches!(engine, Engine::Sim { .. })) {
        tags.push(kind.to_string());
    }
    if !titled {
        tags.extend(engine.ranks().map(|p| format!("{p} ranks")));
    }
    let tags = match tags.is_empty() {
        true => String::new(),
        false => format!(" ({})", tags.join(", ")),
    };
    let secs = out.report.map_or(out.wall_secs, |rep| rep.running_time());
    println!("  {clock}: {secs:.6} s{tags}");
    if let Some(rep) = out.report {
        let c = rep.critical;
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
        print_wire_totals(&out.telemetry);
    }
}

/// The measured `net.*` totals of a mesh run (in-process or launched).
fn print_wire_totals(t: &Registry) {
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

/// The one metrics tail: `--metrics <path>` writes the run's report.
fn write_run_metrics(args: &Args, out: &RunOutcome) -> Result<(), ArgError> {
    match args.get("metrics") {
        Some(path) => write_metrics(args, &mut out.run_report(), path),
        None => Ok(()),
    }
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

fn lasso_cfg(args: &Args, lambda: f64) -> Result<LassoConfig, ArgError> {
    Ok(LassoConfig {
        mu: positive(args, "mu", 8)?,
        s: positive(args, "s", 16)?,
        lambda,
        seed: args.get_or("seed", 42)?,
        max_iters: positive(args, "iters", 10_000)?,
        trace_every: args.get_or("trace-every", 0)?,
        rel_tol: args.get_opt("rel-tol")?,
        ..Default::default()
    })
}

/// `--model-out` for a solution with no resumable training state: the
/// iterate plus its sampling provenance (`prov.lambda` is the trained λ).
fn save_solution(
    args: &Args,
    data: &Data,
    family: &str,
    prov: &LassoConfig,
    iters: usize,
    res: &saco::SolveResult,
) -> Result<(), ArgError> {
    let Some((mpath, ds)) = args.get("model-out").zip(data.dataset()) else {
        return Ok(());
    };
    let (first, last) = (res.trace.initial_value(), res.final_value());
    let art = ModelArtifact::from_solution(
        family,
        ds,
        prov,
        prov.lambda,
        res.x.clone(),
        iters,
        first,
        last,
    );
    save_artifact(&art, mpath)
}

/// Write a model artifact and say what the server can do with it.
fn save_artifact(art: &ModelArtifact, path: &str) -> Result<(), ArgError> {
    art.save(Path::new(path))
        .map_err(|e| ArgError(format!("write model {path}: {e}")))?;
    println!(
        "model artifact ({}, {} iters) written to {path}",
        if art.resumable() {
            "resumable"
        } else {
            "score-only"
        },
        art.iters
    );
    Ok(())
}

fn cmd_lasso(args: &Args) -> Result<(), ArgError> {
    let (engine, data) = parse_run(args, None, ShardAxis::Csc)?;
    let lambda = resolve_lambda(args, &data)?;
    let cfg = lasso_cfg(args, lambda)?;
    let reg = Lasso::new(lambda);
    let accel = args.flag("acc");
    let (points, features) = data.dims();
    println!(
        "lasso{}: {points} × {features}, λ = {lambda:.6e}, µ = {}, s = {}, H = {}",
        data.stream_tag(),
        cfg.mu,
        cfg.s,
        cfg.max_iters
    );
    if let (Some((mpath, ds)), false) = (args.get("model-out").zip(data.dataset()), accel) {
        // The artifact trainer is the same driver run as sa_bcd — bitwise
        // the same solve — but it also captures the residual bits and
        // sampling provenance the server needs to resume training.
        let art = ModelArtifact::train_lasso(ds, &reg, lambda, &cfg);
        println!(
            "objective: {:.6e} (from {:.6e}); nonzeros: {}/{}",
            art.final_obj,
            art.initial_obj,
            art.nonzeros(),
            art.x.len()
        );
        save_artifact(&art, mpath)?;
        return write_weights(args, &art.x);
    }
    let method = Method::Lasso {
        reg: &reg,
        cfg: &cfg,
        accel,
    };
    let out = run(&RunSpec::new(method, engine, data.source()))?;
    let res = out.result();
    println!(
        "objective: {:.6e} (from {:.6e}); nonzeros: {}/{}",
        res.final_value(),
        res.trace.initial_value(),
        vecops::nnz_count(&res.x, 1e-10),
        res.x.len()
    );
    print_io(&out.io);
    write_run_metrics(args, &out)?;
    // Accelerated iterates have no single warm-startable residual chain:
    // persist the solution score-only.
    save_solution(args, &data, "lasso-acc", &cfg, cfg.max_iters, res)?;
    write_weights(args, &res.x)
}

/// The SVM solver options shared by the in-memory and streaming paths.
fn svm_cfg(args: &Args) -> Result<SvmConfig, ArgError> {
    let loss = match args.get("loss").unwrap_or("l1") {
        "l1" | "L1" => SvmLoss::L1,
        "l2" | "L2" => SvmLoss::L2,
        other => return Err(ArgError(format!("--loss must be l1 or l2, got {other:?}"))),
    };
    Ok(SvmConfig {
        loss,
        lambda: args.get_or("lambda", 1.0)?,
        s: positive(args, "s", 64)?,
        seed: args.get_or("seed", 42)?,
        max_iters: positive(args, "iters", 100_000)?,
        trace_every: args.get_or("trace-every", 1_000)?,
        gap_tol: args.get_opt("gap-tol")?,
        ..Default::default()
    })
}

fn cmd_svm(args: &Args) -> Result<(), ArgError> {
    let (engine, data) = parse_run(args, None, ShardAxis::Csr)?;
    if !data.labels().iter().all(|&b| b == 1.0 || b == -1.0) {
        return Err(ArgError("svm needs ±1 labels".into()));
    }
    let cfg = svm_cfg(args)?;
    let (points, features) = data.dims();
    println!(
        "svm-{:?}{}: {points} × {features}, λ = {}, s = {}, H ≤ {}",
        cfg.loss,
        data.stream_tag(),
        cfg.lambda,
        cfg.s,
        cfg.max_iters
    );
    let out = run(&RunSpec::new(Method::svm(&cfg), engine, data.source()))?;
    let res = out.result();
    print!(
        "duality gap: {:.6e} after {} iterations",
        res.final_value(),
        res.iters
    );
    match data.dataset() {
        Some(ds) => {
            let prob = saco::problem::SvmProblem::new(cfg.loss, cfg.lambda);
            println!(
                "; training accuracy: {:.4}",
                prob.accuracy(&ds.a, &ds.b, &res.x)
            );
        }
        None => println!(),
    }
    print_io(&out.io);
    write_run_metrics(args, &out)?;
    let prov = dual_provenance(cfg.s, cfg.lambda, cfg.seed, cfg.max_iters);
    save_solution(args, &data, "svm", &prov, res.iters, res)?;
    write_weights(args, &res.x)
}

/// The sampling provenance a dual-method artifact records (µ = 1 row per
/// step; the artifact format stores it as a `LassoConfig`).
fn dual_provenance(s: usize, lambda: f64, seed: u64, max_iters: usize) -> LassoConfig {
    LassoConfig {
        mu: 1,
        s,
        lambda,
        seed,
        max_iters,
        trace_every: 0,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Kernel dual coordinate descent (`saco ksvm` / `saco kridge`)
// ---------------------------------------------------------------------------
/// `--kernel rbf:gamma=G | poly:d=D,gamma=G,coef0=C | linear` (default
/// `rbf:gamma=1`), parsed by `sparsela::KernelFn`.
fn kdcd_cfg(args: &Args, ksvm: bool) -> Result<KdcdConfig, ArgError> {
    let task = if ksvm {
        let loss = match args.get("loss").unwrap_or("l1") {
            "l1" | "L1" => SvmLoss::L1,
            "l2" | "L2" => SvmLoss::L2,
            other => return Err(ArgError(format!("--loss must be l1 or l2, got {other:?}"))),
        };
        KdcdTask::Svm(loss)
    } else {
        KdcdTask::Ridge
    };
    let kernel = sparsela::KernelFn::parse(args.get("kernel").unwrap_or("rbf:gamma=1"))
        .map_err(|e| ArgError(format!("--kernel: {e}")))?;
    let cache_budget_bytes = parse_bytes(args.get("cache-budget").unwrap_or("64M"))
        .map_err(|e| ArgError(format!("--cache-budget: {e}")))?
        as usize;
    Ok(KdcdConfig {
        task,
        kernel,
        lambda: args.get_or("lambda", if ksvm { 1.0 } else { 0.5 })?,
        s: positive(args, "s", 8)?,
        seed: args.get_or("seed", 42)?,
        max_iters: positive(args, "iters", 10_000)?,
        trace_every: args.get_or("trace-every", 0)?,
        cache_budget_bytes,
        ..Default::default()
    })
}

fn print_kdcd_result(res: &saco::SolveResult, stats: &KdcdStats) {
    println!(
        "dual objective: {:.6e} after {} iterations",
        res.final_value(),
        res.iters
    );
    let total = stats.cache.hits + stats.cache.misses;
    println!(
        "kernel cache: {} hits / {} misses ({:.1}% hit) | {} evictions | {} resident bytes",
        stats.cache.hits,
        stats.cache.misses,
        if total > 0 {
            100.0 * stats.cache.hits as f64 / total as f64
        } else {
            0.0
        },
        stats.cache.evictions,
        stats.cache_resident_bytes
    );
    println!(
        "exchanges: {} words moved | {} all-hit rounds skipped the allreduce",
        stats.exchange_words, stats.exchange_skipped
    );
}

/// `saco ksvm` / `saco kridge`: s-step kernel dual coordinate descent
/// (K-DCD / K-BDCD) on any of the four engines. The kernel matrix never
/// materializes — rows are built on demand and held in a byte-budgeted
/// cache, and an all-hit block skips its allreduce on every rank.
fn cmd_kdcd(args: &Args, ksvm: bool) -> Result<(), ArgError> {
    let name = if ksvm { "ksvm" } else { "kridge" };
    let cfg = kdcd_cfg(args, ksvm)?;
    let (engine, data) = parse_run(args, Some("seq"), ShardAxis::Csr)?;
    if ksvm && !data.labels().iter().all(|&v| v == 1.0 || v == -1.0) {
        return Err(ArgError("ksvm needs ±1 labels".into()));
    }
    let (points, features) = data.dims();
    let shape = match data {
        Data::Memory(_) => format!(
            " (engine {}): {points} points × {features} features",
            engine.name()
        ),
        Data::Shards { .. } => format!("{}: {points} × {features}", data.stream_tag()),
    };
    println!(
        "{name}-{:?}{shape}, λ = {}, s = {}, H = {}",
        cfg.kernel, cfg.lambda, cfg.s, cfg.max_iters
    );
    let out = run(&RunSpec::new(Method::kdcd(&cfg), engine, data.source()))?;
    print_engine_summary(&engine, &out, false);
    print_kdcd_result(out.result(), &out.kdcd[0]);
    print_io(&out.io);
    write_run_metrics(args, &out)?;
    // The α vector with provenance, inspect-only: a kernel model cannot be
    // scored linearly, and the server's score path refuses it.
    let (res, prov) = (
        out.result(),
        dual_provenance(cfg.s, cfg.lambda, cfg.seed, cfg.max_iters),
    );
    save_solution(args, &data, name, &prov, res.iters, res)?;
    write_weights(args, &res.x)
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

/// Shared `simulate`/`launch` solver options: the Lasso config with the
/// simulate-flavored defaults (`mu` 1, `iters` 2000).
fn sim_lasso_cfg(args: &Args, lambda: f64) -> Result<LassoConfig, ArgError> {
    let mut cfg = lasso_cfg(args, lambda)?;
    cfg.mu = positive(args, "mu", 1)?;
    cfg.max_iters = positive(args, "iters", 2_000)?;
    Ok(cfg)
}

/// Stamp the host-pool gauges and write the run report to `path`.
fn write_metrics(args: &Args, telemetry: &mut Registry, path: &str) -> Result<(), ArgError> {
    telemetry.set_meta("dataset", args.require("data")?);
    // Pool activity gauges are host measurements: they vary with
    // --threads (and machine load) while the deterministic sections of
    // the report stay bitwise identical.
    let nthreads = saco_par::threads();
    let pool = saco_par::stats();
    telemetry.gauge_set("par.threads", nthreads as f64);
    telemetry.gauge_set("par.regions", pool.regions as f64);
    telemetry.gauge_set("par.tiles", pool.tiles as f64);
    telemetry.gauge_set("par.utilization", pool.utilization(nthreads));
    mpisim::telemetry::write_run_report(telemetry, Path::new(path))
        .map_err(|e| ArgError(format!("write {path}: {e}")))?;
    println!("metrics written to {path}");
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), ArgError> {
    let (engine, data) = parse_run(args, Some("sim"), ShardAxis::Csc)?;
    let lambda = resolve_lambda(args, &data)?;
    let cfg = sim_lasso_cfg(args, lambda)?;
    let method = Method::Lasso {
        reg: &Lasso::new(lambda),
        cfg: &cfg,
        accel: args.flag("acc"),
    };
    let out = run(&RunSpec::new(method, engine, data.source()))?;
    println!(
        "{}, s = {}, µ = {}, H = {}:",
        engine_view(&engine, data.dataset().is_none()).0,
        cfg.s,
        cfg.mu,
        cfg.max_iters
    );
    print_engine_summary(&engine, &out, true);
    print_io(&out.io);
    println!("  final objective {:.6e}", out.result().final_value());
    if matches!(engine, Engine::Sim { chaos: Some(_), .. }) {
        let t = &out.telemetry;
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
    write_run_metrics(args, &out)
}

/// `saco launch`: spawn `--p` real rank processes (each re-executing this
/// binary with the hidden `_netrank` subcommand), wait for all of them,
/// and merge their per-rank run reports into one summary.
fn cmd_launch(args: &Args) -> Result<(), ArgError> {
    if let Some(engine) = args.get("engine") {
        if engine != "net" {
            return Err(ArgError(format!(
                "launch spawns real rank processes, which only the net engine supports; \
                 got --engine {engine:?} (run `saco simulate --engine {engine}` instead)"
            )));
        }
    }
    let data = Data::Memory(load(args)?);
    let lambda = resolve_lambda(args, &data)?;
    let (points, features) = data.dims();
    let cfg = sim_lasso_cfg(args, lambda)?;
    let p = parse_mesh(args, 256)?;
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
    println!("launching {p} rank processes ({points} × {features}, rendezvous {rendezvous})");
    let mut children = Vec::with_capacity(p);
    for rank in 0..p {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("_netrank")
            .args(["--rank", &rank.to_string(), "--p", &p.to_string()])
            .args(["--rendezvous", &rendezvous])
            .args(["--data", args.require("data")?])
            // f64 Display is shortest-roundtrip, so the resolved λ
            // survives the argv hop losslessly.
            .args(["--lambda", &format!("{lambda}")])
            .args(["--s", &cfg.s.to_string(), "--mu", &cfg.mu.to_string()])
            .args(["--iters", &cfg.max_iters.to_string()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--trace-every", &cfg.trace_every.to_string()])
            .arg("--report")
            .arg(rundir.join(format!("rank{rank}.json")));
        if args.flag("acc") {
            cmd.arg("--acc");
        }
        if args.flag("balanced") {
            cmd.arg("--balanced");
        }
        if let Some(t) = args.get("threads") {
            cmd.args(["--threads", t]);
        }
        if let Some(t) = args.get("io-timeout") {
            cmd.args(["--io-timeout", t]);
        }
        let child = cmd
            .spawn()
            .map_err(|e| ArgError(format!("spawn rank {rank}: {e}")))?;
        children.push((rank, child));
    }
    // Fail-stop: a dead rank closes its sockets, so surviving ranks see
    // typed Closed/Timeout errors and exit instead of hanging — waiting
    // in rank order cannot deadlock.
    let mut failed = Vec::new();
    for (rank, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| ArgError(format!("wait rank {rank}: {e}")))?;
        if !status.success() {
            failed.push(rank);
        }
    }
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
    let mut merged = merge_rank_registries(&ranks);
    println!("all {p} ranks finished:");
    println!(
        "  wall time: {:.6} s (measured, max over ranks)",
        merged.gauge("time.wall_secs").unwrap_or(0.0)
    );
    print_wire_totals(&merged);
    println!(
        "  final objective {:.6e}",
        merged.gauge("objective.final").unwrap_or(f64::NAN)
    );
    println!("per-rank reports in {}", rundir.display());
    if let Some(path) = args.get("metrics") {
        write_metrics(args, &mut merged, path)?;
    }
    Ok(())
}

/// Hidden child subcommand behind `saco launch`: one rank process. Joins
/// the mesh at `--rendezvous`, solves its `--rank`-th partition, and
/// writes its `saco-telemetry/v1` report to `--report`.
fn cmd_netrank(args: &Args) -> Result<(), ArgError> {
    let rank: usize = args
        .require("rank")?
        .parse()
        .map_err(|_| ArgError("--rank: not a rank index".into()))?;
    let (p, balanced) = (parse_mesh(args, 256)?, args.flag("balanced"));
    let engine = Engine::Net { p, balanced };
    let rendezvous = Addr::parse(args.require("rendezvous")?)
        .map_err(|e| ArgError(format!("--rendezvous: {e}")))?;
    let report = args.require("report")?;
    let ds = load(args)?;
    let lambda = args
        .get_opt::<f64>("lambda")?
        .ok_or_else(|| ArgError("missing required option --lambda".into()))?;
    let cfg = sim_lasso_cfg(args, lambda)?;
    let method = Method::Lasso {
        reg: &Lasso::new(lambda),
        cfg: &cfg,
        accel: args.flag("acc"),
    };
    let spec = RunSpec::new(method, engine, Source::InMemory(&ds));
    // Every rank loads the shared file and takes its own row block — the
    // same deterministic split the in-process engines use, so `launch`
    // reproduces their iterates exactly.
    let (_, blocks) = LassoRankData::split(&ds, p, balanced);
    let net_cfg = NetConfig {
        rank,
        size: p,
        rendezvous,
        io_timeout: Duration::from_secs(args.get_or("io-timeout", 30)?),
        connect: Backoff::default(),
    };
    let mut comm = NetComm::establish(net_cfg)
        .map_err(|e| ArgError(format!("rank {rank}/{p}: mesh establish: {e}")))?;
    let t0 = Instant::now();
    let (res, _) = run_rank(
        &spec.method,
        RankComm::Net(&mut comm),
        RankData::Lasso(&blocks[rank]),
    )?;
    let wall = t0.elapsed().as_secs_f64();
    let mut telemetry = net_rank_telemetry(&spec.solver_name(), &comm, wall);
    telemetry.set_meta("dataset", args.require("data")?);
    telemetry.gauge_set("objective.final", res.final_value());
    telemetry.gauge_set("time.wall_secs", wall);
    mpisim::telemetry::write_run_report(&telemetry, Path::new(report))
        .map_err(|e| ArgError(format!("write {report}: {e}")))?;
    comm.shutdown();
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
    if let Some(path) = args.get("metrics") {
        let mut telemetry = Registry::new();
        telemetry.set_meta("engine", "sequential");
        telemetry.set_meta("cli.engine", "seq");
        telemetry.set_meta("solver", "cv_lasso");
        saco::crossval::record_cv_stats(&mut telemetry, &cv, k);
        write_metrics(args, &mut telemetry, path)?;
    }
    Ok(())
}

/// `saco serve`: load a `saco-model/v1` artifact plus the dataset it was
/// trained on, listen on `--listen`, and answer score/train-delta/λ-path
/// requests until Shutdown (or `--max-requests`). Batching follows the
/// Table-I α-β-γ cost model; `--chaos` injects deterministic admission
/// stragglers for tail-latency drills.
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let mpath = args.require("model")?;
    let art = ModelArtifact::load(Path::new(mpath))
        .map_err(|e| ArgError(format!("load model {mpath}: {e}")))?;
    let ds = load(args)?;
    let listen = args.require("listen")?;
    let addr = Addr::parse(listen).map_err(|e| ArgError(format!("--listen: {e}")))?;
    let scfg = ServeConfig {
        slo_ms: args.get_or("slo-ms", 250.0)?,
        batch_max: args.get_or("batch-max", 64)?,
        default_iters: args.get_or("train-iters", 512)?,
        cost: CostModel::cray_xc30(),
        chaos: parse_chaos(args)?,
        max_requests: args.get_opt("max-requests")?,
    };
    let listener =
        saco::serve::Listener::bind(&addr).map_err(|e| ArgError(format!("bind {listen}: {e}")))?;
    println!(
        "serving {} model ({} × {}, λ = {:.6e}, {}) on {listen} — SLO {} ms, batch ≤ {}",
        art.family,
        art.m,
        art.n,
        art.lambda,
        if art.resumable() {
            "resumable"
        } else {
            "score-only"
        },
        scfg.slo_ms,
        scfg.batch_max
    );
    let mut telemetry = Registry::new();
    let report = saco::serve::serve(&listener, &ds, art, &scfg, &mut telemetry)
        .map_err(|e| ArgError(format!("serve: {e}")))?;
    println!(
        "served {} requests | p99 {:.3} ms | {} SLO breaches | {} protocol errors",
        report.requests, report.p99_ms, report.slo_breaches, report.protocol_errors
    );
    if let Some(path) = args.get("metrics") {
        telemetry.set_meta("engine", "serve");
        telemetry.set_meta("cli.engine", "serve");
        telemetry.set_meta("solver", "serve");
        write_metrics(args, &mut telemetry, path)?;
    }
    Ok(())
}
