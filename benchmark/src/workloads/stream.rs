//! `lasso_stream`: SA-accBCD fed from an on-disk shard directory under a
//! resident budget of 25 % of the disk bytes, page cache warm — so the
//! `shard.*` times are decode and bookkeeping, not disk.
//!
//! The measuring process never holds the matrix: generating and sharding
//! it, and the in-memory twin solve the streamed result is checked
//! against, run in child processes (this binary re-executed with
//! `--stage stream-setup`; the last one also solves the twin).
//! `peak_rss_mb` is therefore what a user who streams from shards sees.

use super::solve::lasso_cfg;
use super::{
    bit_halves, check_objectives, objective_bits, quick_budget, run_reps, trace_overhead,
    traced_pick, Ctx, Outcome, SETUP_REPS_COSTLY,
};
use crate::json::Json;
use crate::replay::{self, Draw, Pass, Replay, Stream};
use crate::stats;
use saco::prox::Lasso;
use saco::stream::{stream_sa_accbcd, IoStats, ShardStore, StreamingMatrix};
use sparsela::io::Dataset;
use std::path::Path;
use std::process::Command;

const ROWS: usize = 100_000;
const COLS: usize = 200_000;
const DENSITY: f64 = 2e-4;
const SHARDS: usize = 4096;
const S: usize = 64;
const MU: usize = 4;
/// s·µ = 256 columns per block keeps loader hand-offs coarse enough to be
/// stable unpinned; s = 16 was bimodal on a 2-vCPU host.
const ITERS: usize = 81_920;

fn iters(quick: bool) -> usize {
    quick_budget(quick, ITERS, S)
}

fn generate(seed: u64) -> Dataset {
    let a = datagen::powerlaw_sparse(ROWS, COLS, DENSITY, 1.0, seed);
    datagen::planted_regression(a, COLS / 100, 0.5, seed).dataset
}

/// Child stage: generate the dataset and write it as CSC shards. With
/// `twin`, then also run the in-memory twin on the matrix it still holds:
/// the same configuration through `seq::sa_accbcd`.
pub fn stage_setup(seed: u64, dir: &Path, twin: bool, quick: bool) -> Result<Json, String> {
    let (ds, datagen_s) = replay::timed(|| generate(seed));
    let (manifest, write_s) = replay::timed(|| {
        let csc = ds.a.to_csc();
        let bounds = datagen::shard_plan(&datagen::slice_nnz(&csc), SHARDS);
        sparsela::shard::write_csc(dir, &csc, &bounds, Some(&ds.b))
    });
    let manifest = manifest.map_err(|e| format!("writing shards: {e}"))?;
    let mut fields = vec![
        ("datagen_s".to_string(), Json::Num(datagen_s)),
        ("shard_write_s".to_string(), Json::Num(write_s)),
        ("nnz".to_string(), Json::Num(manifest.nnz as f64)),
    ];
    if twin {
        let cfg = lasso_cfg(MU, S, iters(quick));
        let (res, secs) =
            replay::timed(|| saco::seq::sa_accbcd(&ds, &Lasso::new(cfg.lambda), &cfg));
        let (hi, lo) = bit_halves(res.final_value());
        fields.push(("inmem_s".to_string(), Json::Num(secs)));
        fields.push(("bits_hi".to_string(), Json::Num(hi)));
        fields.push(("bits_lo".to_string(), Json::Num(lo)));
    }
    Ok(Json::Obj(fields))
}

/// Re-execute this binary for the set-up stage, which prints one JSON line.
fn setup_child(seed: u64, extra: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--stage", "stream-setup", "--seed", &seed.to_string()])
        .args(extra)
        .output()
        .map_err(|e| format!("spawning the set-up stage: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the set-up stage failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Json::parse(text.lines().last().unwrap_or(""))
}

fn field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = ctx.scratch.path("shards");
    let dir_arg = dir.to_string_lossy().to_string();
    let (mut datagen_s, mut write_s) = (Vec::new(), Vec::new());
    // The last set-up child also solves the in-memory twin, on the matrix
    // it holds anyway; `setup_s` is what the children report for datagen
    // and shard write, so the twin (and process start and exit) stay out.
    let mut twin = Json::Null;
    let setups = ctx.args.setup_reps(SETUP_REPS_COSTLY);
    for i in 0..setups {
        let _ = std::fs::remove_dir_all(&dir);
        let mut extra = vec!["--dir", dir_arg.as_str()];
        if i + 1 == setups {
            extra.push("--twin");
        }
        if ctx.args.quick {
            extra.push("--quick");
        }
        let made = ctx
            .rec
            .time("setup", || setup_child(ctx.args.seed, &extra))
            .0?;
        datagen_s.push(field(&made, "datagen_s"));
        write_s.push(field(&made, "shard_write_s"));
        out.setup_s
            .push(field(&made, "datagen_s") + field(&made, "shard_write_s"));
        twin = made;
    }

    let store = ShardStore::open(&dir).map_err(|e| format!("opening shards: {e}"))?;
    let manifest = store.manifest().clone();
    let labels = store
        .read_labels()
        .map_err(|e| format!("reading labels: {e}"))?;
    let budget = manifest.disk_bytes() / 4;
    let max_shard = manifest
        .shards
        .iter()
        .map(|m| (m.hi - m.lo + 1) as u64 * 8 + m.nnz * 16)
        .max()
        .unwrap_or(0);
    let cfg = lasso_cfg(MU, S, iters(ctx.args.quick));
    let reg = Lasso::new(cfg.lambda);
    out.note("rows", Json::Num(manifest.minor as f64));
    out.note("cols", Json::Num(manifest.major as f64));
    out.note("nnz", Json::Num(manifest.nnz as f64));
    out.note("disk_bytes", Json::Num(manifest.disk_bytes() as f64));
    out.note("budget_bytes", Json::Num(budget as f64));
    out.note("shards", Json::Num(manifest.shards.len() as f64));
    out.note("iters", Json::Num(cfg.max_iters as f64));
    out.note("s", Json::Num(S as f64));

    let stream = Stream {
        n: manifest.major,
        draw: Draw::Block { mu: MU },
        s: S,
        iters: cfg.max_iters,
        seed: cfg.seed,
    };
    let mut plan = ctx
        .args
        .trace
        .then(|| Replay::new(&stream, manifest.minor, 2, 1, false));
    // A fresh view per rep: every solve starts with a cold shard cache.
    let open = || StreamingMatrix::open(&dir, budget).map_err(|e| format!("opening shards: {e}"));
    let reps = run_reps(&ctx.args, &mut ctx.rec, |traced| {
        let (done, wall) = replay::timed(|| -> Result<_, String> {
            let view = open()?;
            let res = stream_sa_accbcd(&view, &labels, &reg, &cfg);
            Ok((
                res.final_value(),
                res.trace.initial_value(),
                view.io_stats(),
            ))
        });
        let (last, initial, io) = done?;
        let pass = match &mut plan {
            Some(plan) if traced => {
                let view = open()?;
                let mut pass = plan.pass_streamed(&view);
                pass.stall_s = view.io_stats().stall_secs;
                pass
            }
            _ => Pass::default(),
        };
        Ok((wall, (last, initial, io, pass)))
    })?;
    out.measured(&reps);

    let finals: Vec<f64> = reps.outputs.iter().map(|o| o.0).collect();
    check_objectives(&mut out, &finals, reps.outputs[0].1);
    for (i, (_, _, io, _)) in reps.outputs.iter().enumerate() {
        out.attempt(if io.resident_hwm_bytes <= budget + 2 * max_shard {
            Ok(())
        } else {
            Err(format!(
                "rep {i}: resident high-water {} B exceeds budget {budget} B + 2 shards",
                io.resident_hwm_bytes
            ))
        });
    }
    let twin_halves = (field(&twin, "bits_hi"), field(&twin, "bits_lo"));
    out.attempt(if twin_halves == bit_halves(finals[0]) {
        Ok(())
    } else {
        Err("streamed solve differs bitwise from the in-memory twin".to_string())
    });
    let inmem_s = field(&twin, "inmem_s");
    out.note("inmem_wall_s", Json::Num(inmem_s));
    out.note(
        "streamed_over_inmem",
        Json::Num(stats::median(&reps.plain_walls) / inmem_s),
    );

    if let Some(plan) = plan {
        trace_overhead(&mut out, &reps);
        // Rows: the replayed kernels and residency bookkeeping, plus the
        // real run's own stall.
        let picked = traced_pick(&reps, |wall, (_, _, io, pass)| {
            let bookkeep = (pass.prepare_s - pass.stall_s).max(0.0);
            (wall, pass.kernels_s + bookkeep + io.stall_secs)
        });
        let (traced_wall, best) = (picked.wall, picked.output);
        let io = |f: fn(&IoStats) -> f64| f(&best.2);
        let (hits, misses, waits) = (
            io(|s| s.prefetch_hits as f64),
            io(|s| s.prefetch_misses as f64),
            io(|s| s.prefetch_waits as f64),
        );
        out.layer("shard.reads", io(|s| s.shard_reads as f64));
        out.layer("shard.bytes_read", io(|s| s.bytes_read as f64));
        out.layer("shard.evictions", io(|s| s.evictions as f64));
        out.layer("shard.prefetch_hits", hits);
        out.layer("shard.prefetch_misses", misses);
        out.layer("shard.prefetch_waits", waits);
        // Useful outcomes over attempts: a `prepare` that found its shard
        // already resident, over every shard a `prepare` needed.
        out.layer("shard.hit_ratio", hits / (hits + misses + waits).max(1.0));
        out.layer("shard.read_s", io(|s| s.read_secs));
        out.layer("shard.stall_s", io(|s| s.stall_secs));
        out.layer("shard.hidden_s", io(|s| s.hidden_secs));
        out.layer(
            "shard.resident_hwm_mb",
            io(|s| s.resident_hwm_bytes as f64) / (1024.0 * 1024.0),
        );
        out.layer("shard.plan_imbalance", manifest.nnz_imbalance());
        out.layer("shard.write_s", stats::median(&write_s));
        out.layer("setup.shard_write_s", stats::median(&write_s));
        out.layer("setup.datagen_s", stats::median(&datagen_s));

        let id = ctx.rec.enter("replay.decode");
        // Decode cost alone: `read_shard` over an even sample of shards.
        let step = (manifest.shards.len() / 512).max(1);
        let (mut us, mut bytes, mut secs) = (Vec::new(), 0u64, 0.0);
        for meta in manifest.shards.iter().step_by(step) {
            let (shard, t) = replay::timed(|| store.read_shard(meta.index));
            shard.map_err(|e| format!("decoding shard {}: {e}", meta.index))?;
            us.push(t * 1e6);
            bytes += meta.disk_bytes();
            secs += t;
        }
        out.layer("shard.decode_p50_us", stats::median(&us));
        out.layer(
            "shard.decode_mb_per_s",
            bytes as f64 / secs.max(1e-12) * 1e-6,
        );

        let pass = &best.3;
        plan.finish(&open()?, pass, true).record(&mut out);
        ctx.rec.exit(id);
        out.layer("shard.prepare_s", pass.prepare_s);
        // The replay's `prepare` time minus the part of it spent blocked
        // on I/O is pure residency bookkeeping (shard ids, pins,
        // eviction): CPU work that does not depend on how well the real
        // run overlapped its loads. The stall row comes from the real run.
        out.layer("shard.bookkeep_s", (pass.prepare_s - pass.stall_s).max(0.0));
        out.layer("exec.iters", cfg.max_iters as f64);
        out.layer("exec.blocks", stream.blocks() as f64);
        out.layer("exec.inmem_s", inmem_s);
        objective_bits(&mut out, finals[0]);
        out.close_table(&ctx.args, traced_wall, picked.tolerance);
    }
    Ok(out)
}
