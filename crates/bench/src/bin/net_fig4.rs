//! Figure 4, measured: strong scaling of accCD vs SA-accCD on the *real*
//! socket mesh — wall-clock seconds off the wire, published next to the
//! modeled α-β-γ numbers so the two can be compared point by point.
//!
//! Unlike `fig4_scaling` (which simulates paper-scale rank counts on the
//! virtual cluster), this bench spawns P actual OS rank processes on the
//! local box — the bin re-executes itself per rank — that rendezvous over
//! Unix sockets, solve the same row-partitioned Lasso problem, and report
//! their solve wall time. The headline shape the paper predicts must
//! survive contact with a real transport: one fused allreduce per `s`
//! iterations beats one per iteration, because collective *count* (not
//! volume) dominates on a latency-bound mesh.
//!
//! Published baseline gauges (`net_fig4.<ds>.*`): per P, the measured
//! classic (`s = 1`) and best-s SA wall seconds, the chosen `best_s`, the
//! measured speedup, and the modeled speedup for the same (P, s) from the
//! Cray XC30 cost model. `SACO_QUICK=1` shrinks the iteration budget.

use datagen::PaperDataset;
use mpisim::CostModel;
use saco::net::{net_sa_accbcd, LassoRankData, NetComm, NetConfig};
use saco::prox::Lasso;
use saco::run::Method;
use saco::LassoConfig;
use saco_bench::baseline::Baseline;
use saco_bench::table::{csv, Fmt::*, Table};
use saco_bench::{budget, row, shown};
use sparsela::io::{read_libsvm, write_libsvm, Dataset};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn lasso_cfg(lambda: f64, s: usize, iters: usize) -> LassoConfig {
    LassoConfig {
        mu: 1,
        s,
        lambda,
        seed: 4040,
        max_iters: iters,
        trace_every: 0,
        rel_tol: None,
        ..Default::default()
    }
}

/// One rank process: join the mesh rooted in `dir`, solve this rank's row
/// block, and leave the measured solve wall time (and objective) in
/// `dir/rank<r>.out` for the parent.
fn child(args: &[String]) {
    let parse = |i: usize| -> f64 { args[i].parse().expect("child arg") };
    let (rank, p, s, iters) = (
        parse(0) as usize,
        parse(1) as usize,
        parse(2) as usize,
        parse(3) as usize,
    );
    let lambda = parse(4);
    let data = Path::new(&args[5]);
    let dir = Path::new(&args[6]);
    let file = std::fs::File::open(data).expect("open dataset");
    let ds = read_libsvm(BufReader::new(file), 0).expect("parse dataset");
    let (_, blocks) = LassoRankData::split(&ds, p, false);
    let cfg = lasso_cfg(lambda, s, iters);
    let mut comm = NetComm::establish(NetConfig::unix(rank, p, dir)).expect("mesh establish");
    // The establish barrier just fired, so every rank starts its timer at
    // (nearly) the same instant; max over ranks is the run's wall time.
    let t0 = Instant::now();
    let res = net_sa_accbcd(&mut comm, &blocks[rank], &Lasso::new(lambda), &cfg);
    let wall = t0.elapsed().as_secs_f64();
    std::fs::write(
        dir.join(format!("rank{rank}.out")),
        format!("{wall} {}", res.final_value()),
    )
    .expect("write rank result");
    comm.shutdown();
}

/// Spawn `p` rank processes for one (P, s) point and return
/// `(max solve wall secs, rank-0 objective)`.
fn measured(exe: &Path, data: &Path, p: usize, s: usize, iters: usize, lambda: f64) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("saco-net-fig4-{}-p{p}-s{s}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create mesh dir");
    let children: Vec<_> = (0..p)
        .map(|rank| {
            std::process::Command::new(exe)
                .arg("--netrank")
                .args([rank.to_string(), p.to_string(), s.to_string()])
                .args([iters.to_string(), lambda.to_string()])
                .args([data.as_os_str(), dir.as_os_str()])
                .spawn()
                .expect("spawn rank")
        })
        .collect();
    for (rank, mut c) in children.into_iter().enumerate() {
        assert!(c.wait().expect("wait rank").success(), "rank {rank} failed");
    }
    let mut wall = 0.0f64;
    let mut objective = f64::NAN;
    for rank in 0..p {
        let out = std::fs::read_to_string(dir.join(format!("rank{rank}.out"))).expect("rank out");
        let mut it = out.split_whitespace();
        let w: f64 = it.next().expect("wall").parse().expect("wall");
        let obj: f64 = it.next().expect("objective").parse().expect("objective");
        wall = wall.max(w);
        if rank == 0 {
            objective = obj;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (wall, objective)
}

/// Modeled running time for the same (P, s) point on the α-β-γ model.
fn modeled(ds: &Dataset, lambda: f64, s: usize, iters: usize, p: usize) -> f64 {
    let cfg = lasso_cfg(lambda, s, iters);
    let method = Method::Lasso {
        reg: &Lasso::new(lambda),
        cfg: &cfg,
        accel: true,
    };
    saco_bench::simulate(method, ds, p, CostModel::cray_xc30(), false)
        .report
        .expect("sim reports costs")
        .running_time()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "--netrank") {
        child(&args[2..]);
        return;
    }

    let name = PaperDataset::News20.info().name;
    let g = PaperDataset::News20.generate(0.3, 808);
    let lambda = saco_bench::lambda_quantile(&g.dataset, 0.9);
    let iters = budget(2_000);
    let s_sweep = [4usize, 8, 16, 32];
    eprintln!("net_fig4: {name} (H={iters}, λ={lambda:.3e}), measured on the local socket mesh");

    let data = std::env::temp_dir().join(format!("saco-net-fig4-{}.svm", std::process::id()));
    {
        let f = std::fs::File::create(&data).expect("create dataset file");
        write_libsvm(&mut BufWriter::new(f), &g.dataset).expect("write dataset");
    }
    let exe: PathBuf = std::env::current_exe().expect("current_exe");

    let mut baseline = Baseline::load_repo();
    baseline.set(&format!("net_fig4.{name}.iters"), iters as f64);
    let title = format!(
        "net_fig4 — {name}: measured multi-process scaling, accCD vs SA-accCD (H = {iters})"
    );
    let cols = [
        csv("p", Sci(9)).head("P", Plain),
        csv("classic_wall", Sci(9))
            .head("accCD (measured)", Secs)
            .key("classic.wall_secs"),
        csv("sa_wall", Sci(9))
            .head("SA-accCD (measured)", Secs)
            .key("sa_best.wall_secs"),
        csv("best_s", Sci(9)).head("best s", Plain).key("best_s"),
        csv("measured_speedup", Sci(9))
            .head("speedup (measured)", Times(2))
            .key("speedup.measured"),
        csv("modeled_speedup", Sci(9))
            .head("speedup (modeled)", Times(2))
            .key("speedup.modeled"),
    ];
    let mut table = Table::new(title, cols).csv(format!("net_fig4_{name}"));
    for p in [1usize, 2, 4] {
        let (classic_wall, classic_obj) = measured(&exe, &data, p, 1, iters, lambda);
        let (best_s, sa_wall, sa_obj) = s_sweep
            .iter()
            .map(|&s| {
                let (w, o) = measured(&exe, &data, p, s, iters, lambda);
                (s, w, o)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nonempty s sweep");
        assert!(
            classic_obj.is_finite() && sa_obj.is_finite(),
            "p={p}: non-finite objective"
        );
        let modeled_speedup = modeled(&g.dataset, lambda, 1, iters, p)
            / modeled(&g.dataset, lambda, best_s, iters, p);
        let key = format!("net_fig4.{name}.p{p}");
        let measured_speedup = classic_wall / sa_wall;
        let values = row![
            p,
            classic_wall,
            sa_wall,
            best_s,
            measured_speedup,
            modeled_speedup
        ];
        table.keyed_row(key, values);
    }
    table.finish(Some(&mut baseline));
    let path = baseline.write();
    println!("baseline gauges merged into {}", shown(&path));
    let _ = std::fs::remove_file(&data);
}
