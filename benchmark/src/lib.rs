//! One measured, layered, repeatable benchmark for the saco solver stack:
//! seven workloads over seq / par / net / stream / serve, driven only
//! through the public API of `saco`, `sparsela`, `netcomm`, `saco-par`,
//! `xrng` and `datagen`. See `README.md` beside this crate.

pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use json::Json;
use std::path::PathBuf;
use workloads::{Ctx, Outcome, RunArgs};

/// The measuring window `run`/`trace` use when `--seconds` is not given;
/// equal to `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;
pub const DEFAULT_SEED: u64 = 808;

/// One workload, one process: set up, measure, check, and print. The last
/// line of standard output is the result object the acceptance driver
/// reads; the line before it (`#info …`) carries everything else for the
/// `run`/`trace` parents.
pub fn run_workload(args: RunArgs, trace_out: Option<PathBuf>) -> Result<(), String> {
    let pinned = if workloads::is_pinned(&args.workload) {
        Some(host::pin_to_one_cpu().ok_or("cannot pin this process to one CPU")?)
    } else {
        None
    };
    let spin_before = host::spin_secs();
    let mut ctx = Ctx {
        args: args.clone(),
        rec: spans::Recorder::new(),
        scratch: host::Scratch::create().map_err(|e| format!("creating scratch dir: {e}"))?,
    };
    let root = ctx.rec.enter("run");
    let outcome = workloads::dispatch(&mut ctx);
    ctx.rec.exit(root);
    let mut out = outcome?;
    // Exact counts taken at the same boundary as the root span.
    for name in [
        "xrng.draws",
        "gram.calls",
        "gram.flops",
        "pack.words",
        "net.collectives",
        "shard.reads",
        "serve.requests",
    ] {
        if let Some(v) = out.layers.get(name).filter(|v| **v != 0.0) {
            ctx.rec.count(root, name, *v as u64);
        }
    }
    let spin_after = host::spin_secs();

    let metrics = result_metrics(&args, &mut out, spin_before.max(spin_after));
    println!(
        "workload {} seed {} window {}s trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    for (name, value) in &metrics {
        println!("  {name:<28} {value:>18.6} {}", metrics::unit_of(name));
    }
    for (name, reps) in &out.latencies {
        println!(
            "  {name:<28} {:>18.6} {}",
            stats::median(reps),
            metrics::unit_of(name)
        );
    }
    println!(
        "  reps {}  set-up reps {}  attempted {}  failed {}  failed_share {}",
        out.walls.len(),
        out.setup_s.len(),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for why in out.failures.iter().take(10) {
        println!("  FAILED: {why}");
    }
    if args.trace {
        print_table(&out);
    }
    if let Some(path) = trace_out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        ctx.rec
            .write_jsonl(&args.workload, &mut file)
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    let mut info = out.info.clone();
    // The repeated measurements behind each reported median.
    let mut samples = vec![
        ("wall_s".to_string(), Json::nums(&out.walls)),
        ("setup_s".to_string(), Json::nums(&out.setup_s)),
    ];
    for (name, reps) in &out.latencies {
        samples.push((name.to_string(), Json::nums(reps)));
    }
    info.push(("samples".to_string(), Json::Obj(samples)));
    info.push((
        "host.spin_s".to_string(),
        Json::nums(&[spin_before, spin_after]),
    ));
    info.push((
        "fingerprint".to_string(),
        host::fingerprint(args.seed, pinned),
    ));
    println!("#info {}", Json::Obj(info));
    println!("{}", result_line(&out, &metrics));
    Ok(())
}

/// The metrics of this invocation: every end-to-end metric untraced,
/// every per-layer metric traced.
fn result_metrics(args: &RunArgs, out: &mut Outcome, spin_s: f64) -> Vec<(&'static str, f64)> {
    if args.trace {
        out.layer("host.spin_s", spin_s);
        out.layer(
            "host.nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        );
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.0, out.layers.get(m.0).copied().unwrap_or(0.0)))
            .collect()
    } else {
        vec![
            ("wall_s", stats::median(&out.walls)),
            ("peak_rss_mb", out.peak_rss_mb),
            ("setup_s", stats::median(&out.setup_s)),
        ]
    }
}

fn result_line(out: &Outcome, metrics: &[(&'static str, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str(metrics::unit_of(name).to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The self-time table: layer rows plus `exec.self_s`, summing to the
/// traced wall.
fn print_table(out: &Outcome) {
    let wall = out.layers.get("trace.wall_s").copied().unwrap_or(0.0);
    println!("  self-time table (traced wall {wall:.6} s)");
    let mut sum = 0.0;
    for row in metrics::TABLE_ROWS {
        // A layer the workload never touches has no row.
        if let Some(v) = out.layers.get(row).filter(|v| **v != 0.0) {
            sum += v;
            println!(
                "    {row:<20} {v:>12.6} s {:>6.1} %",
                100.0 * v / wall.max(1e-12)
            );
        }
    }
    println!("    {:<20} {sum:>12.6} s", "sum");
    let tolerance = out.layers.get("trace.self_tolerance_pct");
    println!(
        "    exec.self_s resolves to ±{:.1} % of the wall in this run",
        tolerance.copied().unwrap_or(0.0)
    );
}
