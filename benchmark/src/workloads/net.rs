//! `lasso_net_classic` (s = 1) and `lasso_net_sa` (s = 32): SA-accBCD over
//! a real two-rank Unix-socket mesh with thread ranks, the whole process
//! pinned to one CPU.
//!
//! With more ranks than usable CPUs the honest numbers are counts and
//! per-rank time, not wall-clock scaling; what this pair measures is the
//! `netcomm` software path — frames, syscalls, comm-worker hand-off — at
//! two very different frame sizes.

use super::solve::lasso_cfg;
use super::{
    check_objectives, objective_bits, round, run_reps, trace_overhead, traced_pick, Ctx, Outcome,
    SETUP_REPS_CHEAP,
};
use crate::json::Json;
use crate::replay::{self, Draw, Pass, Replay, Stream};
use crate::stats;
use datagen::PaperDataset;
use netcomm::StatsSnapshot;
use saco::net::{net_sa_accbcd, LassoRankData, NetComm, NetConfig};
use saco::prox::Lasso;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const RANKS: usize = 2;

fn establish(rank: usize, dir: &Path) -> Result<NetComm, String> {
    let mut cfg = NetConfig::unix(rank, RANKS, dir);
    // Loopback between live threads: slower than this is a bug.
    cfg.io_timeout = Duration::from_secs(10);
    NetComm::establish(cfg).map_err(|e| format!("rank {rank}: failed to join the mesh: {e}"))
}

/// Form a mesh and tear it down again; returns the seconds to establish
/// (max over ranks).
fn mesh_round_trip(dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let secs: Vec<Result<f64, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..RANKS)
            .map(|r| {
                sc.spawn(move || {
                    let t0 = Instant::now();
                    let mut comm = establish(r, dir)?;
                    let secs = t0.elapsed().as_secs_f64();
                    comm.shutdown();
                    Ok(secs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("rank panicked".to_string()))
            })
            .collect()
    });
    let secs = secs.into_iter().collect::<Result<Vec<f64>, String>>()?;
    Ok(secs.into_iter().fold(0.0, f64::max))
}

/// One rank's view of one solve.
#[derive(Clone, Copy)]
struct RankRep {
    wall: f64,
    objective: f64,
    initial: f64,
    /// Mesh counters accumulated by this solve alone.
    delta: StatsSnapshot,
}

fn delta(a: StatsSnapshot, b: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        bytes_tx: a.bytes_tx - b.bytes_tx,
        bytes_rx: a.bytes_rx - b.bytes_rx,
        frames_tx: a.frames_tx - b.frames_tx,
        frames_rx: a.frames_rx - b.frames_rx,
        retries: a.retries - b.retries,
        reconnects: a.reconnects - b.reconnects,
        collectives: a.collectives - b.collectives,
        comm_secs: a.comm_secs - b.comm_secs,
        wait_secs: a.wait_secs - b.wait_secs,
        reordered: a.reordered - b.reordered,
    }
}

/// What the main thread tells the rank threads to do next.
#[derive(Clone, Copy)]
enum Cmd {
    Solve,
    /// `count` back-to-back allreduces of `words` f64 each, timed singly.
    Allreduce {
        words: usize,
        count: usize,
    },
    Stop,
}

enum Reply {
    Rep(RankRep),
    Latencies(Vec<f64>),
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let classic = ctx.args.workload == "lasso_net_classic";
    let (s, iters) = if classic {
        (1, ctx.args.scaled(250_000, 1))
    } else {
        (32, ctx.args.scaled(2_000_000, 32))
    };
    let cfg = lasso_cfg(1, s, iters);
    let reg = Lasso::new(cfg.lambda);
    let mut out = Outcome::default();

    let mesh_dir = ctx.scratch.path("mesh");
    let (mut datagen_s, mut mesh_s) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..ctx.args.setup_reps(SETUP_REPS_CHEAP) {
        let id = ctx.rec.enter("setup");
        let (made, secs) = replay::timed(|| {
            let ds = PaperDataset::News20.generate(4.0, ctx.args.seed).dataset;
            let (_, blocks) = LassoRankData::split(&ds, RANKS, false);
            (ds, blocks)
        });
        datagen_s.push(secs);
        mesh_s.push(mesh_round_trip(&mesh_dir)?);
        ctx.rec.exit(id);
        out.setup_s.push(ctx.rec.secs(id));
        inputs = Some(made);
    }
    let (ds, blocks) = inputs.expect("at least one set-up rep");
    out.note("rows", Json::Num(ds.a.rows() as f64));
    out.note("cols", Json::Num(ds.a.cols() as f64));
    out.note("nnz", Json::Num(ds.a.nnz() as f64));
    out.note("iters", Json::Num(iters as f64));
    out.note("s", Json::Num(s as f64));
    out.note("ranks", Json::Num(RANKS as f64));

    let _ = std::fs::remove_dir_all(&mesh_dir);
    std::fs::create_dir_all(&mesh_dir).map_err(|e| e.to_string())?;
    let stream = Stream {
        n: ds.a.cols(),
        draw: Draw::Block { mu: cfg.mu },
        s,
        iters,
        seed: cfg.seed,
    };
    let words = sparsela::sympack::payload_words(stream.block_width(), 2, false);

    // The mesh outlives every rep: rank threads wait for commands, run
    // one solve (timer started after a barrier, so no rank's clock covers
    // another's late start) and report back.
    let (mut cmd_tx, mut reply_rx) = (Vec::new(), Vec::new());
    let result = std::thread::scope(|sc| -> Result<(), String> {
        let mut handles = Vec::new();
        for (r, block) in blocks.iter().enumerate() {
            let (ctx_tx, ctx_rx) = mpsc::channel::<Cmd>();
            let (rep_tx, rep_rx) = mpsc::channel::<Result<Reply, String>>();
            cmd_tx.push(ctx_tx);
            reply_rx.push(rep_rx);
            let (cfg, reg, dir) = (&cfg, &reg, mesh_dir.as_path());
            handles.push(sc.spawn(move || {
                let t0 = Instant::now();
                let mut comm = match establish(r, dir) {
                    Ok(c) => c,
                    Err(e) => {
                        let _ = rep_tx.send(Err(e));
                        return 0.0;
                    }
                };
                let establish_s = t0.elapsed().as_secs_f64();
                while let Ok(cmd) = ctx_rx.recv() {
                    let reply = match cmd {
                        Cmd::Stop => break,
                        Cmd::Solve => comm
                            .barrier()
                            .map_err(|e| format!("rank {r}: barrier: {e}"))
                            .map(|()| {
                                let before = comm.stats();
                                let t0 = Instant::now();
                                let res = net_sa_accbcd(&mut comm, block, reg, cfg);
                                Reply::Rep(RankRep {
                                    wall: t0.elapsed().as_secs_f64(),
                                    objective: res.final_value(),
                                    initial: res.trace.initial_value(),
                                    delta: delta(comm.stats(), before),
                                })
                            }),
                        Cmd::Allreduce { words, count } => (0..count)
                            .map(|_| {
                                let t0 = Instant::now();
                                comm.allreduce_sum(vec![1.0; words])
                                    .map(|_| t0.elapsed().as_secs_f64() * 1e6)
                                    .map_err(|e| format!("rank {r}: allreduce: {e}"))
                            })
                            .collect::<Result<Vec<f64>, String>>()
                            .map(Reply::Latencies),
                    };
                    if rep_tx.send(reply).is_err() {
                        break;
                    }
                }
                comm.shutdown();
                establish_s
            }));
        }
        let tell_all = |cmd: Cmd| round(&cmd_tx, &reply_rx, cmd);
        let solve = || -> Result<Vec<RankRep>, String> {
            Ok(tell_all(Cmd::Solve)?
                .into_iter()
                .filter_map(|r| match r {
                    Reply::Rep(rep) => Some(rep),
                    Reply::Latencies(_) => None,
                })
                .collect())
        };

        // Rank 0's row block: what rank 0's kernels run on.
        let mut plan = ctx
            .args
            .trace
            .then(|| Replay::new(&stream, blocks[0].csc.rows(), 2, 1, true));
        let reps = run_reps(&ctx.args, &mut ctx.rec, |traced| {
            // A complete solve ends when its slowest rank does.
            let ranks = solve()?;
            let pass = match &mut plan {
                Some(plan) if traced => plan.pass(&blocks[0].csc),
                _ => Pass::default(),
            };
            Ok((
                ranks.iter().map(|r| r.wall).fold(0.0, f64::max),
                (ranks, pass),
            ))
        });
        let latencies = if ctx.args.trace && reps.is_ok() {
            let count = if ctx.args.quick { 200 } else { 2000 };
            tell_all(Cmd::Allreduce { words, count })
        } else {
            Ok(Vec::new())
        };
        let _ = tell_all(Cmd::Stop);
        cmd_tx.clear();
        let establish_s: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or(0.0))
            .collect();
        let reps = reps?;
        out.measured(&reps);

        // All ranks bitwise-equal on every rep, reps bitwise-equal to each
        // other, and the mesh within 1e-9 relative of the sequential
        // solver on the same configuration.
        for (i, (ranks, _)) in reps.outputs.iter().enumerate() {
            out.attempt(
                if ranks
                    .iter()
                    .all(|r| r.objective.to_bits() == ranks[0].objective.to_bits())
                {
                    Ok(())
                } else {
                    Err(format!("rep {i}: ranks disagree on the final objective"))
                },
            );
        }
        let finals: Vec<f64> = reps.outputs.iter().map(|r| r.0[0].objective).collect();
        check_objectives(&mut out, &finals, reps.outputs[0].0[0].initial);
        let (seq, inmem_s) = ctx
            .rec
            .time("check.seq", || saco::seq::sa_accbcd(&ds, &reg, &cfg));
        let rel = (seq.final_value() - finals[0]).abs() / seq.final_value().abs();
        out.attempt(if rel <= 1e-9 {
            Ok(())
        } else {
            Err(format!(
                "mesh objective is {rel:e} relative away from seq::sa_accbcd"
            ))
        });
        out.note("seq_wall_s", Json::Num(inmem_s));
        out.note(
            "wall_per_iter_us",
            Json::Num(stats::median(&reps.plain_walls) / iters as f64 * 1e6),
        );

        if let Some(plan) = plan {
            trace_overhead(&mut out, &reps);
            // Rank 0 speaks for the mesh: counters are per rank, and with
            // both ranks on one CPU its wait covers its peer's compute.
            // Rank 0's own wall, so its wait and compute rows add up.
            let picked = traced_pick(&reps, |_, (ranks, pass)| {
                (ranks[0].wall, ranks[0].delta.wait_secs + pass.total())
            });
            let (ranks, pass) = picked.output;
            let rank0 = ranks[0];
            let d = rank0.delta;
            out.layer("net.collectives", d.collectives as f64);
            out.layer("net.frames_tx", d.frames_tx as f64);
            out.layer("net.bytes_tx", d.bytes_tx as f64);
            out.layer("net.comm_s", d.comm_secs);
            out.layer("net.wait_s", d.wait_secs);
            out.layer("net.retries", d.retries as f64);
            out.layer("net.reconnects", d.reconnects as f64);
            out.layer(
                "net.establish_s",
                establish_s.iter().copied().fold(0.0, f64::max),
            );
            if let Some(Reply::Latencies(us)) = latencies?.into_iter().next() {
                let us = stats::sorted(&us);
                out.layer("net.allreduce_p50_us", stats::percentile_sorted(&us, 50.0));
                out.layer("net.allreduce_p99_us", stats::percentile_sorted(&us, 99.0));
            }
            out.note("payload_words", Json::Num(words as f64));

            plan.finish(&blocks[0].csc, pass, false).record(&mut out);
            out.layer("exec.iters", iters as f64);
            out.layer("exec.blocks", stream.blocks() as f64);
            out.layer("exec.inmem_s", inmem_s);
            objective_bits(&mut out, finals[0]);
            out.layer("setup.datagen_s", stats::median(&datagen_s));
            out.layer("setup.mesh_establish_s", stats::median(&mesh_s));
            out.close_table(&ctx.args, picked.wall, picked.tolerance);
        }
        Ok(())
    });
    result?;
    Ok(out)
}
