//! Figure 2: objective vs iteration for CD, accCD, BCD, accBCD and their
//! SA variants on the leu / covtype / news20 stand-ins.
//!
//! The paper's claims this reproduces: (a) SA curves coincide with their
//! classical counterparts (same iterates in exact arithmetic), (b) larger
//! block sizes converge faster per iteration, (c) accelerated beats
//! non-accelerated. The paper runs s = 1000 everywhere; we use s = 1000
//! for the µ = 1 methods and cap the SA *block width* `sµ` at 1000 for
//! µ = 8 (s = 125) so the `sµ × sµ` Gram stays laptop-sized — the
//! stability conclusion is unchanged (see also the `huge_s` unit test).

use datagen::PaperDataset;
use saco::prox::Lasso;
use saco::seq::{acc_bcd, bcd, sa_accbcd, sa_bcd};
use saco::{LassoConfig, SolveResult};
use saco_bench::table::{head, Fmt::*, Table};
use saco_bench::{budget, lambda_quantile, row};
use sparsela::io::Dataset;

struct Setup {
    ds: PaperDataset,
    scale: f64,
    iters: usize,
    s_cd: usize,
    s_bcd: usize,
    /// λ anchored at this quantile of |Aᵀb| (see `lambda_quantile`).
    lambda_q: f64,
}

fn run_all(
    ds: &Dataset,
    lambda: f64,
    iters: usize,
    s_cd: usize,
    s_bcd: usize,
) -> Vec<(String, SolveResult)> {
    let reg = Lasso::new(lambda);
    let trace_every = (iters / 40).max(1);
    let cfg = |mu: usize, s: usize| LassoConfig {
        mu,
        s,
        lambda,
        seed: 2020,
        max_iters: iters,
        trace_every,
        rel_tol: None,
        ..Default::default()
    };
    vec![
        ("CD".into(), bcd(ds, &reg, &cfg(1, 1))),
        ("accCD".into(), acc_bcd(ds, &reg, &cfg(1, 1))),
        ("BCD".into(), bcd(ds, &reg, &cfg(8, 1))),
        ("accBCD".into(), acc_bcd(ds, &reg, &cfg(8, 1))),
        (format!("SA-CD s={s_cd}"), sa_bcd(ds, &reg, &cfg(1, s_cd))),
        (
            format!("SA-accCD s={s_cd}"),
            sa_accbcd(ds, &reg, &cfg(1, s_cd)),
        ),
        (
            format!("SA-BCD s={s_bcd}"),
            sa_bcd(ds, &reg, &cfg(8, s_bcd)),
        ),
        (
            format!("SA-accBCD s={s_bcd}"),
            sa_accbcd(ds, &reg, &cfg(8, s_bcd)),
        ),
    ]
}

fn main() {
    let setups = [
        Setup {
            ds: PaperDataset::Leu,
            scale: 1.0,
            iters: 4000,
            s_cd: 1000,
            s_bcd: 125,
            lambda_q: 0.90,
        },
        Setup {
            ds: PaperDataset::Covtype,
            scale: 0.1,
            iters: 400,
            s_cd: 200,
            s_bcd: 25,
            lambda_q: 0.90,
        },
        Setup {
            ds: PaperDataset::News20,
            scale: 1.0,
            iters: 40_000,
            s_cd: 1000,
            s_bcd: 125,
            lambda_q: 0.90,
        },
    ];
    for setup in setups {
        let name = setup.ds.info().name;
        let g = setup.ds.generate(setup.scale, 99);
        let lambda = lambda_quantile(&g.dataset, setup.lambda_q);
        let iters = budget(setup.iters);
        eprintln!(
            "fig2: {name} (m={}, n={}, λ={lambda:.4e}, H={iters})",
            g.dataset.num_points(),
            g.dataset.num_features()
        );
        let runs = run_all(&g.dataset, lambda, iters, setup.s_cd, setup.s_bcd);

        let series = Table::traces(format!("fig2_{name}"), &runs);

        let title = format!("Fig. 2 — {name}: objective after H = {iters} iterations");
        let cols = [
            head("method", Plain),
            head("initial objective", Sci(6)),
            head("final objective", Sci(6)),
        ];
        let mut table = Table::new(title, cols);
        for (n, r) in &runs {
            table.row(row![n.as_str(), r.trace.initial_value(), r.final_value()]);
        }
        table.finish(None);
        series.finish(None);

        // Sanity summaries mirroring the paper's reading of the figure.
        let get = |tag: &str| {
            runs.iter()
                .find(|(n, _)| n.starts_with(tag))
                .expect("method ran")
        };
        let (_, cd) = get("CD");
        let (_, bcd_r) = get("BCD");
        println!(
            "BCD/CD final ratio: {:.3} (paper: larger blocksizes converge faster)",
            bcd_r.final_value() / cd.final_value()
        );
    }
}
