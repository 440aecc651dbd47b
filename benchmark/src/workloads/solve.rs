//! The three in-memory, single-process solver workloads:
//! `lasso_seq_sparse`, `svm_seq_dense` and `lasso_par_dense`.

use super::{
    check_objectives, objective_bits, run_reps, trace_overhead, traced_pick, Ctx, Outcome,
    SETUP_REPS_CHEAP,
};
use crate::json::Json;
use crate::replay::{self, Draw, Pass, Replay, Stream};
use crate::stats;
use datagen::PaperDataset;
use saco::config::{LassoConfig, SvmConfig};
use saco::prox::Lasso;
use saco::SolveResult;
use sparsela::io::Dataset;

/// Solver seeds are fixed; only `datagen` sees the workload seed.
const SOLVER_SEED: u64 = 1;
const LAMBDA: f64 = 0.1;

enum Family {
    Lasso(LassoConfig),
    Svm(SvmConfig),
}

struct Spec {
    dataset: PaperDataset,
    scale: f64,
    family: Family,
    /// `saco_par::set_threads` for the timed solves.
    threads: usize,
}

fn spec(ctx: &Ctx) -> Spec {
    let a = &ctx.args;
    match a.workload.as_str() {
        "lasso_seq_sparse" => Spec {
            dataset: PaperDataset::News20,
            scale: 4.0,
            family: Family::Lasso(lasso_cfg(8, 16, a.scaled(400_000, 16))),
            threads: 1,
        },
        "svm_seq_dense" => Spec {
            dataset: PaperDataset::Gisette,
            scale: 1.0,
            family: Family::Svm(SvmConfig {
                s: 16,
                seed: SOLVER_SEED,
                max_iters: a.scaled(300_000, 16),
                trace_every: 0,
                ..SvmConfig::default()
            }),
            threads: 1,
        },
        _ => Spec {
            dataset: PaperDataset::Epsilon,
            scale: 1.0,
            family: Family::Lasso(lasso_cfg(8, 16, a.scaled(800, 16))),
            threads: 2,
        },
    }
}

pub fn lasso_cfg(mu: usize, s: usize, iters: usize) -> LassoConfig {
    LassoConfig {
        mu,
        s,
        lambda: LAMBDA,
        seed: SOLVER_SEED,
        max_iters: iters,
        // First and last objective only: tracing is not what is measured.
        trace_every: 0,
        ..LassoConfig::default()
    }
}

fn solve(ds: &Dataset, family: &Family) -> SolveResult {
    match family {
        Family::Lasso(cfg) => saco::seq::sa_accbcd(ds, &Lasso::new(cfg.lambda), cfg),
        Family::Svm(cfg) => saco::seq::sa_svm(ds, cfg),
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let spec = spec(ctx);
    let mut out = Outcome::default();

    let mut ds = None;
    for _ in 0..ctx.args.setup_reps(SETUP_REPS_CHEAP) {
        let (g, secs) = ctx
            .rec
            .time("setup", || spec.dataset.generate(spec.scale, ctx.args.seed));
        out.setup_s.push(secs);
        ds = Some(g.dataset);
    }
    let ds = ds.expect("at least one set-up rep");
    out.note("rows", Json::Num(ds.a.rows() as f64));
    out.note("cols", Json::Num(ds.a.cols() as f64));
    out.note("nnz", Json::Num(ds.a.nnz() as f64));

    let (iters, s, stream, nvecs) = match &spec.family {
        Family::Lasso(cfg) => (
            cfg.max_iters,
            cfg.s,
            Stream {
                n: ds.a.cols(),
                draw: Draw::Block { mu: cfg.mu },
                s: cfg.s,
                iters: cfg.max_iters,
                seed: cfg.seed,
            },
            2,
        ),
        Family::Svm(cfg) => (
            cfg.max_iters,
            cfg.s,
            Stream {
                n: ds.a.rows(),
                draw: Draw::Row,
                s: cfg.s,
                iters: cfg.max_iters,
                seed: cfg.seed,
            },
            1,
        ),
    };
    // What the kernels are replayed on: the SVM family samples rows of
    // the dataset's own CSR; the Lasso family samples columns of a CSC
    // copy that `seq::sa_accbcd` converts afresh on every call — so each
    // replay pass converts its own, which lands in the block the solve
    // just freed. (A copy kept for the whole run sits on other physical
    // pages, and on this host that alone can make every pass of a run
    // 1.8× slower than the solves beside it.)
    let lasso = matches!(spec.family, Family::Lasso(_));
    let minor_len = if lasso { ds.a.rows() } else { ds.a.cols() };
    let mut plan = ctx
        .args
        .trace
        .then(|| Replay::new(&stream, minor_len, nvecs, spec.threads, false));

    saco_par::set_threads(spec.threads);
    saco_par::reset_stats();
    let reps = run_reps(&ctx.args, &mut ctx.rec, |traced| {
        let before = saco_par::stats();
        let (res, wall) = replay::timed(|| solve(&ds, &spec.family));
        let after = saco_par::stats();
        let pool = (
            after.regions - before.regions,
            after.tiles - before.tiles,
            after.busy_secs - before.busy_secs,
            after.wall_secs - before.wall_secs,
        );
        let pass = match &mut plan {
            Some(plan) if traced && lasso => plan.pass(&ds.a.to_csc()),
            Some(plan) if traced => plan.pass(&ds.a),
            _ => Pass::default(),
        };
        let solved = (res.final_value(), res.trace.initial_value(), res.iters);
        Ok((wall, (solved, pool, pass)))
    })?;
    out.measured(&reps);

    let finals: Vec<f64> = reps.outputs.iter().map(|o| o.0 .0).collect();
    check_objectives(&mut out, &finals, reps.outputs[0].0 .1);
    out.note("iters", Json::Num(iters as f64));
    out.note("s", Json::Num(s as f64));
    out.note("threads", Json::Num(spec.threads as f64));
    out.attempt(if reps.outputs.iter().all(|o| o.0 .2 == iters) {
        Ok(())
    } else {
        Err(format!(
            "a solve stopped before its {iters}-iteration budget"
        ))
    });

    // The pooled solve must equal the plain single-thread solve bitwise;
    // that solve is also the base of the derived `thread_scaling`.
    if spec.threads > 1 {
        saco_par::set_threads(1);
        let (one, secs) = ctx
            .rec
            .time("check.one_thread", || solve(&ds, &spec.family));
        saco_par::set_threads(spec.threads);
        out.attempt(if one.final_value().to_bits() == finals[0].to_bits() {
            Ok(())
        } else {
            Err("pooled solve differs bitwise from the 1-thread solve".to_string())
        });
        out.note("one_thread_wall_s", Json::Num(secs));
        out.note(
            "thread_scaling",
            Json::Num(secs / stats::median(&reps.plain_walls)),
        );
    }

    if let Some(plan) = plan {
        trace_overhead(&mut out, &reps);
        let picked = traced_pick(&reps, |wall, o| (wall, o.2.total()));
        let (traced_wall, best) = (picked.wall, picked.output);
        let (regions, tiles, busy, wall) = best.1;
        out.layer("par.regions", regions as f64);
        out.layer("par.tiles", tiles as f64);
        out.layer("par.busy_s", busy);
        out.layer("par.wall_s", wall);
        out.layer(
            "par.utilization",
            if wall > 0.0 {
                (busy / (wall * spec.threads as f64)).min(1.0)
            } else {
                0.0
            },
        );
        let k = if lasso {
            plan.finish(&ds.a.to_csc(), &best.2, false)
        } else {
            plan.finish(&ds.a, &best.2, false)
        };
        k.record(&mut out);
        out.layer("exec.iters", iters as f64);
        out.layer("exec.blocks", stream.blocks() as f64);
        objective_bits(&mut out, finals[0]);
        // In memory on `seq` already: the overhead base is the run itself.
        out.layer("exec.inmem_s", traced_wall);
        out.layer("setup.datagen_s", stats::median(&out.setup_s));
        out.close_table(&ctx.args, traced_wall, picked.tolerance);
    }
    Ok(out)
}
